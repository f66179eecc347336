(** The client virtual-memory model (Section 5.3 of the paper).

    Sprite divides each process's pages into four groups:

    - {e code} pages, read-only, paged from the executable file — and kept
      in memory after the process exits so re-invocations of the same
      program fault them back without traffic;
    - {e initialized data} pages, paged from the executable through the
      client file cache (copied into VM on first touch);
    - {e modified data} and {e stack} pages, paged to and from per-process
      backing files, which are ordinary files on the server but are never
      cached on the client.

    The model tracks page counts and ages rather than page contents, and
    reports its current page demand so the machine's memory arbiter can
    trade pages with the file cache (the VM system receives preference; a
    VM page must sit unreferenced for 20 minutes before it may be handed
    to the file cache). *)

type io = {
  cached_page_read : file:Dfs_trace.Ids.File.t -> off:int -> len:int -> unit;
      (** code/initialized-data fault serviced through the client file
          cache (Class_paging traffic) *)
  backing_read : bytes:int -> unit;
      (** uncacheable page-in from a backing file *)
  backing_write : bytes:int -> unit;
      (** uncacheable page-out to a backing file *)
}

type config = {
  page_size : int;
  code_retention : float;
      (** seconds an exited program's code pages stay resident before they
          become reclaimable (the paper: "many minutes") *)
  vm_trade_idle : float;
      (** seconds a VM page must be unreferenced before it can be given to
          the file cache; Sprite uses 20 minutes *)
}

type t

val create : io -> t
(** A model with 4-Kbyte pages, 25 minutes of code retention and
    Sprite's 20-minute VM trade rule; {!config} reads them back. *)

val config : t -> config

(** {1 Process lifecycle} *)

val exec :
  t ->
  now:float ->
  pid:Dfs_trace.Ids.Process.t ->
  exe:Dfs_trace.Ids.File.t ->
  code_bytes:int ->
  data_bytes:int ->
  unit
(** Start a process: fault in code pages (free if the executable's pages
    are still retained from a previous run, otherwise read through the
    file cache) and initialized data pages (always read through the file
    cache — clean copies live there when the program ran recently). *)

val grow :
  t -> now:float -> pid:Dfs_trace.Ids.Process.t -> heap_bytes:int -> unit
(** The process dirtied more data/stack pages (no traffic until they are
    swapped or the process exits). *)

val swap_out :
  t -> now:float -> pid:Dfs_trace.Ids.Process.t -> fraction:float -> unit
(** Write the given fraction of the process's dirty pages to its backing
    file — deactivation, memory pressure, or migration eviction. *)

val swap_in :
  t -> now:float -> pid:Dfs_trace.Ids.Process.t -> fraction:float -> unit
(** Fault swapped pages back from the backing file. *)

val exit :
  t -> now:float -> pid:Dfs_trace.Ids.Process.t -> unit
(** Dirty pages are discarded (they never reach the server); code pages
    move to the retained pool keyed by executable. *)

(** {1 Memory arbitration} *)

val demand_pages : t -> now:float -> int
(** Pages the VM system currently claims: working sets of live processes
    plus retained code pages that are not yet old enough (per
    [vm_trade_idle]) to be traded to the file cache. *)

val reclaim_retained : t -> now:float -> max_pages:int -> int
(** Drop up to [max_pages] of the oldest reclaimable retained code pages;
    returns the number actually freed. *)

val live_processes : t -> int

val processes : t -> (Dfs_trace.Ids.Process.t * int) list
(** Live processes with their resident page counts (largest first); used
    by the memory arbiter to pick swap victims under pressure. *)

val retained_pages : t -> int

val drop_state : t -> unit
(** Release the process table and retained-code map once the simulation
    is over; the VM must see no further activity afterwards. *)
