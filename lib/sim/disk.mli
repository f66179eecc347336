(** A file server's disk: seek-dominated accesses in the 20-30 ms range
    (the paper's figure for 1991 disks), plus transfer time. *)

type t

type config = {
  access_time : float;  (** seek + rotation, seconds *)
  transfer_rate : float;  (** bytes per second *)
}

val default_config : config

val create :
  ?config:config ->
  ?faults:Dfs_fault.Injector.t ->
  ?service_times:Dfs_obs.Metrics.Acc.t ->
  unit ->
  t
(** With [faults], each I/O may suffer a transient-error retry penalty
    drawn from the injector (added to its service time).  Service times
    go into [service_times], which a cluster shares among its disks. *)

val read : t -> bytes:int -> float
(** Account a disk read; returns its service time. *)

val write : t -> bytes:int -> float

val reads : t -> int

val writes : t -> int

val bytes_read : t -> int

val bytes_written : t -> int
