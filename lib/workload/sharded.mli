(** Sharded (partitioned) simulation runs.

    Partitions a cluster — clients plus their home servers — into
    per-domain shards executed as one conservative parallel
    discrete-event simulation (see {!Dfs_sim.Pdes}): each partition is
    an ordinary {!Dfs_sim.Cluster} minting globally disjoint
    client/server/file/user/pid id ranges, partitions advance through
    shared lookahead windows derived from the network's
    [remote_latency] lower bound, and cross-partition RPCs are
    exchanged as totally-ordered timestamped batches at window
    barriers.

    Determinism contract: the partition layout, every per-partition RNG
    stream, and the cross-partition message order are pure functions of
    the run configuration (seed, cluster size) and of stable entity ids
    — never of the worker count.  The worker count ([scale --jobs])
    therefore changes only how many domains execute the windows; output
    is byte-identical at 1 vs N workers. *)

val drive : Dfs_sim.Cluster.t -> until:float -> unit
(** Run a single (unpartitioned) cluster through the windowed executor:
    one partition, coarse [duration/256] windows.  Byte-identical to
    [Engine.run_until] — windows only slice the same event order — but
    exercises the barrier machinery and its telemetry on every run.
    This is the path {!Presets.run} takes.  The run publishes its
    metrics when it ends, so drive a cluster once. *)

(** {1 Partitioned scale runs} *)

type config = {
  n_clients : int;
  n_servers : int;
  seed : int;
  duration : float;  (** simulated seconds *)
  start_hour : float;
  fault_profile : Dfs_fault.Profile.t;
  partitions : int option;  (** [None]: {!auto_partitions} *)
  chunk_records : int option;
  spill_dir : string option;
}

val default_config : config

type result = {
  partitions : int;
  workers : int;  (** execution domains actually used *)
  users : int;
  barriers : int;  (** window barriers executed *)
  remote_msgs : int;  (** cross-partition messages exchanged *)
  merged : Dfs_trace.Sink.chunks;
      (** scrubbed global trace, k-way merged across all partitions *)
  clusters : Dfs_sim.Cluster.t array;
  drivers : Driver.t array;
}

val auto_partitions : n_clients:int -> n_servers:int -> int
(** One partition per ~64 clients, capped by the server count; at least
    1.  A pure function of cluster size, never of the worker count. *)

val run : ?workers:int -> config -> result
(** Build the partitions, wire deterministic cross-partition read
    traffic, execute to [duration] on [workers] domains (default:
    {!Dfs_util.Pool.default_jobs}; clamped to the partition count), and
    merge the per-partition traces.  Partitions publish their metrics in
    partition order, so a snapshot is the same for any worker count. *)

val digest : Dfs_trace.Sink.chunks -> int
(** CRC-32C over the text encoding of every record in stream order —
    the stable content fingerprint the 1-vs-N-workers identity checks
    compare. *)

val release : result -> unit
(** Release all partitions' simulation state (traces, queues, tables);
    the merged trace and counters survive. *)
