(** Assembly of the whole measured system: ~40 diskless clients, 4 file
    servers, the shared Ethernet, per-server trace logs, the kernel
    counter sampler, and the housekeeping daemons (5-second delayed-write
    scans, memory arbitration, counter sampling, the trace-collection
    daemon and the nightly backup whose records get scrubbed from the
    merged trace exactly as in Section 3 of the paper). *)

type config = {
  n_clients : int;
  n_servers : int;
  seed : int;
  client_config : Client.config;
  client_memory_choices : int list;
      (** physical memory per client is drawn from these (bytes) *)
  server_config : Server.config;
  network_config : Network.config;
  daemon_interval : float;  (** delayed-write scan period; Sprite: 5 s *)
  memory_adjust_interval : float;
  counter_interval : float;  (** kernel-counter sampling period *)
  simulate_infrastructure : bool;
      (** emit trace-daemon and nightly-backup records (to be scrubbed) *)
  fault_profile : Dfs_fault.Profile.t;
      (** fault injection; {!Dfs_fault.Profile.none} (the default)
          disables it entirely and leaves runs byte-identical to a build
          without the fault subsystem *)
  trace_chunk_records : int;
      (** records per sealed trace chunk (per-server logs and the merged
          trace); bounds peak memory together with [trace_spill_dir] *)
  trace_spill_dir : string option;
      (** when set, sealed chunks are written there as binary trace
          segments instead of staying in memory *)
  trace_spill_tag : string;
      (** segment-file name prefix and the label of the cluster's
          sim-time span stream; must be unique among clusters spilling
          into the same directory or traced in the same run *)
  client_id_base : int;
      (** global id of local client 0.  The id-base fields (all default
          0) exist for partitioned (sharded) simulations: each partition
          is an ordinary cluster whose clients/servers/files/users/pids
          mint ids from disjoint global ranges, so per-partition traces
          merge into one coherent global trace.  With every base 0 a
          cluster is byte-identical to one built before these fields
          existed. *)
  server_id_base : int;  (** global id of local server 0 *)
  file_id_base : int;  (** first file id the namespace allocates *)
  user_id_base : int;  (** first workload user id (consumed by the driver) *)
  pid_base : int;  (** first workload pid (consumed by the driver) *)
  fault_schedule_servers : int option;
      (** total servers of the global fault schedule (default:
          [server_id_base + n_servers]); partitions of one sharded run
          pass the global total so every partition reads its slice of
          the {e same} schedule *)
}

val default_config : config

val self_users : Dfs_trace.Ids.User.Set.t
(** The reserved identities of the trace-collection daemon, the nightly
    tape backup and cross-partition remote reads in sharded simulations,
    scrubbed from the merged trace. *)

type t

val create : config -> t

val cfg : t -> config

val engine : t -> Engine.t

val fs : t -> Fs_state.t

val network : t -> Network.t

val rng : t -> Dfs_util.Rng.t
(** The root generator; split it for workload streams. *)

val clients : t -> Client.t array

val servers : t -> Server.t array

val client : t -> int -> Client.t

val client_id : t -> int -> Dfs_trace.Ids.Client.t
(** Global trace id of local client [i]
    ([client_id_base + i]); the id workload credentials must carry. *)

val remote_access : t -> client:Dfs_trace.Ids.Client.t -> bytes:int -> int
(** Serve a cross-partition remote read issued by [client] (a client of
    another partition): picks a live local file (rotating cursor), runs
    the read through the owning server's cache, accounts the RPC, and
    emits open/close records under the reserved remote-read identity
    (one of {!self_users}).  Returns the bytes served (0 when no file
    qualifies). *)

val counters : t -> Counters.t

val faults : t -> Dfs_fault.Injector.t option
(** The fault injector, when [fault_profile] enables one.  Crash/reboot
    events for every outage window are scheduled at cluster creation;
    reboots trigger the recovery storm (each client replays its open and
    dirty state, staggered deterministically). *)

val server_chunks : t -> Dfs_trace.Sink.chunks list
(** Per-server logs in time order (as collected, before merging), as
    chunked streams.  Non-destructive: the cluster can keep running and
    be snapshotted again.
    @raise Invalid_argument after {!release_sim_state}. *)

val merged_chunks : ?spill:Dfs_trace.Sink.spill -> t -> Dfs_trace.Sink.chunks
(** The merged, scrubbed, time-ordered trace as a chunked stream: a
    streaming k-way merge over the per-server chunk streams, dropping
    {!self_users} records on the fly, in chunks of the cluster's
    [trace_chunk_records]; pass [spill] to write the merged chunks to
    disk.  Peak memory is one output chunk plus one loaded
    chunk per server.
    @raise Invalid_argument after {!release_sim_state}. *)

val release_sim_state : t -> unit
(** Release everything a finished simulation no longer needs, once the
    merged trace has been produced: the per-server logs (in-memory
    chunks become collectable, spilled segments are deleted; trace
    accessors raise afterwards), the event queue, the namespace's
    per-file table, and every client/server per-file map and cache block
    store.  Counters, traffic totals and cache statistics — all the
    post-run analyses read — survive.  The cluster can no longer run. *)

val publish : t -> unit
(** Add the [sim.*] totals and histograms of the cluster's models, and
    its span stream's counts, to the metrics registry.  A run calls it
    once, when it ends ([Dfs_workload.Sharded]); a second call counts
    everything again. *)

val total_traffic : t -> Traffic.t
(** Sum of all clients' raw traffic taps. *)

val total_server_traffic : t -> Traffic.t
