(** A Sprite file server.

    Servers are where the paper's traces were collected: all naming
    operations (opens, closes, deletes, directory reads) and repositions
    pass through them, so the server logs every trace record.  Servers
    also run the consistency protocol of Section 5.5:

    - per-file timestamps (versions) let clients flush stale blocks at
      open time;
    - the server tracks the {e last writer} of each file and recalls its
      dirty data when some other client opens the file;
    - when a file is open on two or more clients with at least one
      writer ({e concurrent write-sharing}), client caching is disabled
      for the file until every client has closed it, and all reads and
      writes pass through to the server (where they are logged as shared
      read/write events, exactly the events the paper's consistency
      simulations consume).

    Each server has a large block cache of its own, backed by a disk with
    1991-era access times. *)

type client_hooks = {
  recall_dirty : now:float -> file:Dfs_trace.Ids.File.t -> unit;
      (** flush the file's dirty blocks back to the server *)
  stop_caching : now:float -> file:Dfs_trace.Ids.File.t -> unit;
      (** flush and drop the file's blocks; pass subsequent I/O through *)
  resume_caching : now:float -> file:Dfs_trace.Ids.File.t -> unit;
      (** sharing over: the client may cache the file again *)
}

type open_result = {
  cacheable : bool;
  version : int;
  latency : float;  (** RPC + consistency-action time *)
}

type config = {
  cache_blocks : int;  (** server cache capacity; the main server had 128 MB *)
  disk : Disk.config;
}

val default_config : config

type t

val create :
  id:Dfs_trace.Ids.Server.t ->
  config:config ->
  fs:Fs_state.t ->
  network:Network.t ->
  log:(Dfs_trace.Record.t -> unit) ->
  ?faults:Dfs_fault.Injector.t * int ->
  ?disk_service_times:Dfs_obs.Metrics.Acc.t ->
  ?dirty_ages:Dfs_obs.Metrics.Acc.t ->
  unit ->
  t
(** [faults] is the cluster's injector paired with this server's index
    in it.  With faults on, every RPC entry point charges the injector's
    timeout/retry delay, writebacks addressed to a down server are
    parked in its offline queue, and transient disk errors lengthen disk
    service times.  [disk_service_times] and [dirty_ages] are
    accumulators a cluster shares. *)

val id : t -> Dfs_trace.Ids.Server.t

val network : t -> Network.t
(** The network this server's clients reach it over. *)

val register_client : t -> Dfs_trace.Ids.Client.t -> client_hooks -> unit

(** {1 Naming operations} — all are logged as trace records. *)

val open_file :
  t ->
  now:float ->
  cred:Cred.t ->
  info:Fs_state.file_info ->
  mode:Dfs_trace.Record.open_mode ->
  created:bool ->
  open_result

val close_file :
  t ->
  now:float ->
  cred:Cred.t ->
  info:Fs_state.file_info ->
  mode:Dfs_trace.Record.open_mode ->
  final_pos:int ->
  bytes_read:int ->
  bytes_written:int ->
  float
(** Returns the RPC latency. *)

val reposition :
  t ->
  now:float ->
  cred:Cred.t ->
  info:Fs_state.file_info ->
  pos_before:int ->
  pos_after:int ->
  float

val delete_file :
  t -> now:float -> cred:Cred.t -> info:Fs_state.file_info -> float

val truncate_file :
  t -> now:float -> cred:Cred.t -> info:Fs_state.file_info -> float

val dir_read :
  t -> now:float -> cred:Cred.t -> info:Fs_state.file_info -> bytes:int -> float

(** {1 Data path} *)

val fetch :
  t ->
  now:float ->
  cls:Dfs_cache.Block_cache.traffic_class ->
  file:Dfs_trace.Ids.File.t ->
  index:int ->
  bytes:int ->
  float
(** A client cache miss: serve a block from the server cache or disk. *)

val writeback :
  t -> now:float -> file:Dfs_trace.Ids.File.t -> index:int -> bytes:int -> unit
(** Dirty client data arriving at the server; written to disk 30 s later
    by the server's own delayed-write daemon. *)

val shared_read :
  t ->
  now:float ->
  cred:Cred.t ->
  info:Fs_state.file_info ->
  off:int ->
  len:int ->
  float
(** Uncacheable pass-through read on a write-shared file (logged). *)

val shared_write :
  t ->
  now:float ->
  cred:Cred.t ->
  info:Fs_state.file_info ->
  off:int ->
  len:int ->
  float

val backing_read :
  t -> now:float -> client:Dfs_trace.Ids.Client.t -> bytes:int -> float
(** Page-in from the client's backing file (cached on the server only). *)

val backing_write :
  t -> now:float -> client:Dfs_trace.Ids.Client.t -> bytes:int -> float

val tick : t -> now:float -> unit
(** The server cache's delayed-write daemon (dirty data to disk). *)

(** {1 Crash and recovery (Sprite's stateful recovery protocol)} *)

val crash : t -> now:float -> int
(** Power loss: clears the open table and last-writer map and drops the
    server cache.  Returns the dirty (delayed-write) bytes destroyed —
    data inside the paper's 30-second loss window. *)

val reboot : t -> now:float -> unit
(** Back up: replay the writebacks clients parked while the server was
    down (as ["recov-writeback"] RPCs). *)

val recover_register : t -> client:Dfs_trace.Ids.Client.t -> float
(** A client re-introducing itself after the reboot; returns the RPC
    latency. *)

val recover_open :
  t ->
  client:Dfs_trace.Ids.Client.t ->
  file:Dfs_trace.Ids.File.t ->
  mode:Dfs_trace.Record.open_mode ->
  float
(** Replay one pre-crash open into the rebuilt open table.  Emits no
    trace record and bumps no consistency counters — it reconstructs
    state, it is not new activity. *)

val recover_dirty :
  t -> client:Dfs_trace.Ids.Client.t -> file:Dfs_trace.Ids.File.t -> float
(** Re-assert last-writer state for a file the client holds dirty. *)

(** {1 Introspection} *)

val is_cacheable : t -> Dfs_trace.Ids.File.t -> bool

val traffic : t -> Traffic.t
(** Bytes presented to this server by clients, by category (Table 7). *)

val cache : t -> Dfs_cache.Block_cache.t

val disk : t -> Disk.t

type consistency_counters = {
  mutable file_opens : int;  (** opens of regular files *)
  mutable sharing_opens : int;
      (** opens that resulted in concurrent write-sharing *)
  mutable recalls : int;  (** opens that recalled dirty data *)
  mutable cache_disables : int;
}

val consistency : t -> consistency_counters

val release_sim_state : t -> unit
(** Release the per-file and per-client tables plus cache contents once
    the simulation is over.  Counters ({!traffic}, {!consistency}, cache
    stats) survive; the server must handle no further operations. *)
