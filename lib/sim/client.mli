(** A diskless Sprite client workstation.

    Each client owns a dynamically sized block cache, a virtual-memory
    model that trades pages with it, a file-descriptor table, and a tap
    recording the raw traffic applications present to the client OS
    (Table 5's measurement point).

    File operations route through the cache when the server permits
    caching, and pass through to the server (as logged shared reads and
    writes) when the file is undergoing concurrent write-sharing.  Every
    operation advances simulated time by its latency when invoked from an
    {!Engine.spawn}ed process. *)

type config = {
  memory_bytes : int;  (** physical memory; measured clients: 24-32 MB *)
  kernel_reserve_bytes : int;  (** pages never available to cache or VM *)
  min_cache_bytes : int;
  max_cache_fraction : float;
      (** ceiling on the cache's share of memory; the "natural" Sprite
          cache size was a quarter to a third of memory *)
  initial_cache_bytes : int;
  syscall_overhead : float;  (** fixed time per file operation, seconds *)
  copy_rate : float;  (** memory copy bandwidth for cache hits, bytes/s *)
  writeback_delay : float;  (** the delayed-write window; Sprite: 30 s *)
}

val default_config : config

type t

type fd

val create :
  engine:Engine.t ->
  id:Dfs_trace.Ids.Client.t ->
  fs:Fs_state.t ->
  server_of:(Dfs_trace.Ids.Server.t -> Server.t) ->
  paging_server:Server.t ->
  ?config:config ->
  ?sleep:bool ->
  ?op_latencies:Dfs_obs.Metrics.Acc.t ->
  ?dirty_ages:Dfs_obs.Metrics.Acc.t ->
  unit ->
  t
(** [sleep:false] (for unit tests) makes operations account latency
    without suspending the calling process.  [op_latencies] and the
    cache's [dirty_ages] are accumulators a cluster shares. *)

val id : t -> Dfs_trace.Ids.Client.t

val hooks : t -> Server.client_hooks
(** The callbacks the servers use for recalls and cache disabling;
    register them with every server. *)

val cache : t -> Dfs_cache.Block_cache.t

val vm : t -> Dfs_vm.Vm.t

val traffic : t -> Traffic.t
(** Raw application traffic (before the cache). *)

val config : t -> config

(** {1 File operations} *)

val open_file :
  t ->
  cred:Cred.t ->
  info:Fs_state.file_info ->
  mode:Dfs_trace.Record.open_mode ->
  created:bool ->
  fd

val read : t -> fd -> len:int -> int
(** Sequential read at the current offset; returns bytes actually read
    (clamped at end of file). *)

val write : t -> fd -> len:int -> int
(** Sequential write at the current offset, extending the file as
    needed; returns [len]. *)

val seek : t -> fd -> pos:int -> unit
(** Reposition; logged at the server like Sprite's modified clients. *)

val fd_pos : t -> fd -> int

val fsync : t -> fd -> unit

val close : t -> fd -> unit

val delete : t -> cred:Cred.t -> info:Fs_state.file_info -> unit

val truncate : t -> cred:Cred.t -> info:Fs_state.file_info -> unit

val read_dir : t -> cred:Cred.t -> info:Fs_state.file_info -> unit
(** Read a directory's contents (uncacheable on clients). *)

(** {1 Processes and paging} *)

val exec_process :
  t ->
  cred:Cred.t ->
  exe:Fs_state.file_info ->
  code_bytes:int ->
  data_bytes:int ->
  unit

val grow_process : t -> cred:Cred.t -> heap_bytes:int -> unit

val exit_process : t -> cred:Cred.t -> unit

val swap_out_process : t -> cred:Cred.t -> fraction:float -> unit

val swap_in_process : t -> cred:Cred.t -> fraction:float -> unit

(** {1 Crash recovery} *)

val recover : t -> server:Server.t -> float * int
(** Replay this client's state to a freshly rebooted server (Sprite's
    stateful recovery): re-register, then replay every open fd and every
    dirty file that lives on that server, in file-id order.  Returns the
    total RPC latency and the number of recovery RPCs issued. *)

(** {1 Housekeeping} *)

val tick : t -> now:float -> unit
(** The client cache's 5-second delayed-write daemon. *)

val adjust_memory : t -> now:float -> unit
(** Re-arbitrate memory between the VM system and the file cache; run
    periodically.  The VM system receives preference, as in Sprite. *)

val cache_bytes : t -> int

val take_activity : t -> bool
(** True when any operation ran since the last call (consumes the flag);
    feeds the counter sampler's "active interval" screening. *)

val release_sim_state : t -> unit
(** Release the per-file tables, cache contents and VM state once the
    simulation is over.  Counters (cache stats, traffic) survive; the
    client must perform no further operations. *)
