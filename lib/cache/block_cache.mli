(** The Sprite client/server block cache (Section 5 of the paper).

    File data is cached on a block-by-block basis (4-KByte blocks), with:

    - LRU replacement;
    - a 30-second delayed-write policy: a daemon runs every 5 seconds and
      writes back every dirty block of any file that has had a block dirty
      for 30 seconds;
    - synchronous write-through on [fsync];
    - recall: the server may demand a file's dirty blocks back when
      another client opens the file;
    - write fetches: a partial write to a non-resident block of an
      existing file must first fetch the block from the server;
    - dynamic capacity: the machine's memory arbiter raises and lowers
      the block budget as the virtual memory system's needs change, and
      pages leave the cache either to hold another file block or to be
      given to the VM system (Table 8).

    The cache moves no actual data — it tracks byte counts, which is all
    the paper's tables need — but its state machine (residency, dirtiness,
    ages) is faithful.

    Each resident file has one entry: its blocks in an open-addressing
    array keyed by block index, and its dirty blocks in a list ordered
    by the time they were dirtied, so looking up, inserting, evicting
    and cleaning a block never hashes through or walks a whole per-file
    table.  A file's dirty blocks are written
    back in the order the per-file [Hashtbl] that indexed them before
    iterated them (DESIGN.md §15), which keeps every output unchanged. *)

type clean_reason =
  | Clean_delay  (** the 30-second delayed-write policy *)
  | Clean_fsync  (** application-requested write-through *)
  | Clean_recall  (** server recalled dirty data *)
  | Clean_vm  (** page surrendered to the virtual memory system *)
  | Clean_eviction  (** dirty block was the LRU victim (rare) *)

val clean_reason_name : clean_reason -> string

type replace_reason =
  | Replace_for_block  (** page reused for another file block *)
  | Replace_to_vm  (** page given to the virtual memory system *)

val replace_reason_name : replace_reason -> string

type traffic_class = Class_file | Class_paging

type config = {
  block_size : int;
  writeback_delay : float;  (** seconds a block may stay dirty; paper: 30 *)
  capacity_blocks : int;  (** initial block budget *)
  min_capacity_blocks : int;  (** the cache never shrinks below this *)
}

val default_config : config
(** 4-KByte blocks, 30-second delay, 2 MB initial capacity, 512 KB floor. *)

type backend = {
  fetch :
    cls:traffic_class ->
    file:Dfs_trace.Ids.File.t ->
    index:int ->
    bytes:int ->
    unit;
      (** a block (or its valid prefix) read from the server, attributed
          to the class of the request that missed *)
  writeback :
    file:Dfs_trace.Ids.File.t ->
    index:int ->
    bytes:int ->
    reason:clean_reason ->
    unit;  (** dirty data pushed to the server *)
}

type t

val create : ?config:config -> ?dirty_ages:Dfs_obs.Metrics.Acc.t -> backend -> t
(** Each writeback adds its block's dirty age to [dirty_ages], which a
    cluster shares among its caches. *)

(** {1 Data path}

    All operations take [now], the current simulation time, and
    [file_size], the file's size in bytes {e before} the operation. *)

val read :
  t ->
  now:float ->
  cls:traffic_class ->
  migrated:bool ->
  file:Dfs_trace.Ids.File.t ->
  file_size:int ->
  off:int ->
  len:int ->
  unit

val write :
  t ->
  now:float ->
  cls:traffic_class ->
  migrated:bool ->
  file:Dfs_trace.Ids.File.t ->
  file_size:int ->
  off:int ->
  len:int ->
  unit

val fsync : t -> now:float -> file:Dfs_trace.Ids.File.t -> unit
(** Write through all of the file's dirty blocks. *)

val recall : t -> now:float -> file:Dfs_trace.Ids.File.t -> unit
(** Server recall: flush the file's dirty blocks (they stay resident). *)

val invalidate : t -> now:float -> file:Dfs_trace.Ids.File.t -> unit
(** Drop all of the file's blocks without writing them back; used when an
    open discovers a newer version on the server.  Dirty bytes dropped are
    counted as saved writebacks (the delete/overwrite-before-writeback
    effect the paper credits with ~10% of new bytes). *)

val flush_and_invalidate : t -> now:float -> file:Dfs_trace.Ids.File.t -> unit
(** Recall then drop; used when the server disables caching for a file. *)

val delete : t -> now:float -> file:Dfs_trace.Ids.File.t -> unit
(** The file was deleted or truncated to zero: drop blocks, discarding
    dirty data (it never reaches the server). *)

val tick : t -> now:float -> unit
(** The delayed-write daemon: call every few seconds of simulated time. *)

(** {1 Crash support} *)

val dirty_bytes : t -> int
(** Dirty bytes currently exposed to the delayed-write loss window (the
    sum of the writeback extents of all dirty blocks). *)

val dirty_file_ids : t -> int list
(** Ids of files with at least one dirty block, sorted ascending (a
    deterministic order for recovery replay). *)

val crash : t -> now:float -> int
(** Simulate power loss: drop every block without writing anything back
    and return the dirty bytes destroyed.  The loss is not added to
    [dirty_bytes_discarded] (that stat counts delete-before-writeback
    savings); callers account it as delayed-write loss. *)

(** {1 Capacity negotiation} *)

val capacity : t -> int

val size : t -> int
(** Resident blocks. *)

val resident_bytes : t -> int

val set_capacity : t -> now:float -> int -> unit
(** Shrinking evicts LRU blocks to the VM system ([Replace_to_vm]);
    clamped to [min_capacity_blocks]. *)

(** {1 Statistics} *)

type class_stats = {
  mutable read_ops : int;  (** block-level cache read operations *)
  mutable read_hits : int;
  mutable read_misses : int;
  mutable bytes_read : int;  (** bytes requested by the application *)
  mutable bytes_fetched : int;  (** bytes read from the server on read misses *)
  mutable write_ops : int;
  mutable write_fetches : int;
  mutable write_fetch_bytes : int;
      (** bytes fetched from the server to complete partial writes *)
  mutable bytes_written : int;  (** bytes written into the cache *)
}

type stats = {
  all : class_stats;  (** every request *)
  file : class_stats;  (** Class_file requests *)
  paging : class_stats;  (** Class_paging requests *)
  migrated : class_stats;  (** requests from migrated processes *)
  mutable writeback_bytes : int;  (** dirty bytes pushed to the server *)
  mutable dirty_bytes_discarded : int;
      (** dirty bytes deleted/overwritten before writeback *)
  cleanings : (clean_reason * Dfs_util.Stats.t) list;
      (** per-reason counts and ages (now - last write) *)
  replacements : (replace_reason * Dfs_util.Stats.t) list;
      (** per-reason counts and ages (now - last reference) *)
}

val stats : t -> stats

val dirty_blocks : t -> int

val drop_contents : t -> unit
(** Release the block store and per-file indexes once the simulation is
    over; {!stats} keeps working.  Dirty blocks are dropped without
    writeback, so the cache must not be used for I/O afterwards. *)

val check_invariants : t -> unit
(** Internal consistency: size within capacity; the LRU list's links
    agree walked both ways, and it holds exactly the indexed blocks, each
    found by a lookup through its file's entry; each entry's count is its
    blocks, its dirty list is ordered by dirtying time and holds exactly
    its dirty blocks, and it is in the dirty-file table exactly when it
    has one; the replayed bucket count is a power of two, at least 16,
    and at least half the entry's blocks.  Raises [Assert_failure] on
    violation; used by tests. *)
