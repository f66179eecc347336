(** Runtime fault injection: the mutable counterpart of a {!Schedule}.

    One injector serves one cluster.  It answers "is this server
    reachable right now?", charges RPC timeout/retry/backoff delays,
    draws per-RPC drop and per-I/O disk-error outcomes from its own RNG
    stream (never the workload's, so enabling faults does not perturb
    the workload), holds the offline queue of writebacks addressed to a
    down server, and accumulates the recovery statistics that
    {!Dfs_analysis.Recovery_stats} renders.

    All draws happen in engine-execution order inside a single cluster,
    so runs are deterministic for a fixed profile seed. *)

type stats = {
  mutable reboots : int;
  mutable partitions : int;
  mutable rpc_retries : int;  (** retransmissions, all causes *)
  mutable rpc_drops : int;  (** retransmissions caused by packet loss *)
  mutable backoff_capped : int;
      (** retry waits clipped to the profile's backoff ceiling *)
  mutable disk_errors : int;
  mutable recovery_rpcs : int;
      (** re-registrations and state-replay RPCs after reboots *)
  mutable offline_queued_bytes : int;
      (** writeback bytes parked client-side while a server was down *)
  mutable replayed_bytes : int;  (** offline bytes delivered after reboot *)
}

type t

val create :
  profile:Profile.t ->
  n_servers:int ->
  ?server_id_base:int ->
  ?schedule_servers:int ->
  horizon:float ->
  unit ->
  t
(** One injector per cluster (or per partition of a partitioned
    cluster).  [n_servers] is the number of {e local} servers this
    injector answers queries for; their global ids start at
    [server_id_base] (default 0).  The outage schedule is always
    generated for the full global cluster of [schedule_servers] servers
    (default [server_id_base + n_servers]) — generation is pure, and
    splitting it per partition this way leaves every server's windows
    identical to the unpartitioned schedule.  Data-path queries take
    local server indices; jitter draws key on global ids so retry
    timing is partition-independent. *)

val profile : t -> Profile.t

val schedule : t -> Schedule.t

val stats : t -> stats

val outages : t -> Dfs_obs.Metrics.Acc.t

val crash_losses : t -> Dfs_obs.Metrics.Acc.t

val stalls : t -> Dfs_obs.Metrics.Acc.t
(** Each crash's outage (s) and lost dirty bytes, and each delayed RPC's
    retry stall (s). *)

val crashes : t -> int
(** The count of {!outages}. *)

val downtime_s : t -> float
(** Summed outage durations: the sum of {!outages}. *)

val lost_bytes : t -> int
(** Dirty delayed-write bytes destroyed by crashes: the sum of
    {!crash_losses}. *)

val rpc_stall_s : t -> float
(** Client time spent waiting on retries: the sum of {!stalls}. *)

(** {1 Data-path queries} *)

val backoff_step : Profile.t -> server:int -> attempt:int -> float
(** The wait before retransmission [attempt] (0-based): the doubling
    timeout [rpc_timeout * 2^attempt], spread by [rpc_backoff_jitter]
    using a pure per-(seed, server, attempt) RNG split, clamped to
    [rpc_backoff_max].  A pure function — the same retry waits the same
    time regardless of [DFS_JOBS] sharding.  Each ceiling-clipped step
    taken by {!rpc_delay} counts in [backoff_capped]. *)

val server_down : t -> server:int -> now:float -> bool
(** Down or unreachable behind a partition. *)

val rpc_delay : t -> server:int -> now:float -> float
(** Extra latency this RPC suffers: [0] in the common case; the
    timeout/backoff stall until the server is reachable again when it is
    down or partitioned; one-or-more retransmission timeouts when the
    packet-loss draw fires.  Updates retry counters. *)

val disk_penalty : t -> float
(** Extra service time for one disk I/O ([0] or the profile's transient
    error penalty). *)

(** {1 Crash / recovery bookkeeping} *)

val note_crash : t -> server:int -> now:float -> duration:float -> lost_bytes:int -> unit

val note_reboot : t -> server:int -> now:float -> unit

val note_partition : t -> now:float -> duration:float -> unit

val note_recovery_rpcs : t -> int -> unit

(** {1 Offline writeback queue} *)

val queue_writeback : t -> server:int -> file:int -> index:int -> bytes:int -> unit

val drain_writebacks :
  t -> server:int -> (file:int -> index:int -> bytes:int -> unit) -> unit
(** Replay queued writebacks in FIFO order and account them as
    replayed. *)

val queued_bytes : t -> server:int -> int
