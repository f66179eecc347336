(** The shared Ethernet between clients and servers.

    Models a 10 Mbit/s medium: a per-RPC latency plus serialization time,
    and running totals used for the paper's utilization observations
    (e.g. "40 workstations collectively generate about 4% of an
    Ethernet's bandwidth in paging traffic"). *)

type t

type config = {
  bandwidth : float;  (** bytes per second; Ethernet: 1.25e6 *)
  rpc_latency : float;  (** per-RPC round-trip overhead, seconds *)
  remote_latency : float;
      (** minimum latency of any {e inter-partition} RPC (the backbone
          between subnets); the conservative-PDES lookahead window is
          derived from this lower bound, so it must not be optimistic *)
}

val default_config : config

val create : ?config:config -> unit -> t

val config : t -> config

val rpc : t -> kind:string -> bytes:int -> float
(** Account one remote procedure call carrying [bytes] of data; returns
    the time it occupies the medium (latency + serialization).  [kind]
    names the RPC in sim-time spans.

    @raise Invalid_argument if [bytes] is negative. *)

val total_rpcs : t -> int

val total_bytes : t -> int

val latency : t -> Dfs_obs.Metrics.Acc.t
(** Every RPC's latency; its count is {!total_rpcs}. *)

val utilization : t -> elapsed:float -> float
(** Fraction of the medium's capacity used over [elapsed] seconds. *)
