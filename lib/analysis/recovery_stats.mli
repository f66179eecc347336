(** Crash-recovery and delayed-write-loss accounting.

    The paper (Section 5.2) accepts a 30-second window during which
    delayed-write data can be destroyed by a crash, arguing full cache
    flushes are only modestly safer.  With fault injection on, this
    module turns each run's fault injector into the table
    that quantifies that trade: crashes, downtime, delayed-write bytes
    actually lost, what the offline queue saved (parked and replayed
    after reboot), and the size of the recovery storm. *)

type row = {
  run_name : string;
  crashes : int;
  reboots : int;
  downtime_s : float;
  lost_kb : float;  (** delayed-write bytes destroyed by crashes *)
  lost_per_crash_kb : float;
  offline_queued_kb : float;
      (** writeback bytes parked while a server was down *)
  replayed_kb : float;  (** parked bytes delivered after reboot *)
  recovery_rpcs : int;  (** re-register + state-replay RPC storm *)
  rpc_retries : int;
  rpc_stall_s : float;  (** client time lost to timeout/backoff *)
  disk_errors : int;
  partitions : int;
}

type t = { rows : row list; total : row }

val analyze : (string * Dfs_fault.Injector.t) list -> t
(** One row per (run name, injector) pair, plus a total row. *)

val pp : Format.formatter -> t -> unit
