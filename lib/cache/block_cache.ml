module File = Dfs_trace.Ids.File

type clean_reason =
  | Clean_delay
  | Clean_fsync
  | Clean_recall
  | Clean_vm
  | Clean_eviction

let clean_reason_name = function
  | Clean_delay -> "30-second delay"
  | Clean_fsync -> "write-through requested by application"
  | Clean_recall -> "server recall"
  | Clean_vm -> "virtual memory page"
  | Clean_eviction -> "replacement of dirty block"

type replace_reason = Replace_for_block | Replace_to_vm

type traffic_class = Class_file | Class_paging

type config = {
  block_size : int;
  writeback_delay : float;
  capacity_blocks : int;
  min_capacity_blocks : int;
}

let default_config =
  {
    block_size = Dfs_util.Units.block_size;
    writeback_delay = 30.0;
    capacity_blocks = 512;
    min_capacity_blocks = 128;
  }

type backend = {
  fetch :
    cls:traffic_class -> file:File.t -> index:int -> bytes:int -> unit;
  writeback :
    file:File.t -> index:int -> bytes:int -> reason:clean_reason -> unit;
}

(* A resident block is also its own node in the cache's LRU list: [prev]
   and [next] link it into a circular list through the cache's sentinel,
   least recently used first, so a touch or an eviction is a few pointer
   swaps and allocates nothing. *)
type block = {
  b_file : File.t;
  b_index : int;
  mutable dirty : bool;
  mutable dirtied_at : float;  (* first dirtied since last clean *)
  mutable last_write : float;
  mutable last_ref : float;
  mutable dirty_high : int;  (* writeback extent, from the block start *)
  mutable prev : block;  (* towards the LRU end *)
  mutable next : block;  (* towards the MRU end *)
}

(* Int-keyed tables that hash with [Hashtbl.hash], exactly as the generic
   [Hashtbl] does, so every bucket layout (and with it the order in which
   [clean_file] and [tick] write back) is the generic table's.  Only the
   key comparison changes: an int test instead of polymorphic compare. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash = Hashtbl.hash
end)

type class_stats = {
  mutable read_ops : int;
  mutable read_hits : int;
  mutable read_misses : int;
  mutable bytes_read : int;
  mutable bytes_fetched : int;
  mutable write_ops : int;
  mutable write_fetches : int;
  mutable write_fetch_bytes : int;
  mutable bytes_written : int;
}

let fresh_class_stats () =
  {
    read_ops = 0;
    read_hits = 0;
    read_misses = 0;
    bytes_read = 0;
    bytes_fetched = 0;
    write_ops = 0;
    write_fetches = 0;
    write_fetch_bytes = 0;
    bytes_written = 0;
  }

type stats = {
  all : class_stats;
  file : class_stats;
  paging : class_stats;
  migrated : class_stats;
  mutable writeback_bytes : int;
  mutable dirty_bytes_discarded : int;
  cleanings : (clean_reason * Dfs_util.Stats.t) list;
  replacements : (replace_reason * Dfs_util.Stats.t) list;
}

type dirty_info = {
  mutable dn : int;  (* dirty blocks in this file *)
  mutable earliest : float;
      (* Lower bound on the oldest [dirtied_at] among them.  May go
         stale-early when the oldest block is cleaned individually (we
         don't rescan on clean); [tick] verifies before writing back and
         tightens the bound when it proves conservative, so the delay
         policy stays exact while the per-tick scan touches only files
         that could plausibly have expired. *)
}

(* Dense indices for the per-reason timing stats.  [clean_block] and
   [evict_one] are on the simulation's hottest path (every writeback and
   eviction), so the lookup must not walk an assoc list. *)
let clean_index = function
  | Clean_delay -> 0
  | Clean_fsync -> 1
  | Clean_recall -> 2
  | Clean_vm -> 3
  | Clean_eviction -> 4

let replace_index = function Replace_for_block -> 0 | Replace_to_vm -> 1

type t = {
  cfg : config;
  backend : backend;
  lru : block;  (* sentinel: [lru.next] is the LRU block, [lru.prev] the MRU *)
  mutable resident : int;  (* blocks linked into [lru] *)
  files : block Itbl.t Itbl.t;  (* file id -> block index -> block *)
  dirty_files : dirty_info Itbl.t;
  mutable capacity : int;
  mutable dirty_count : int;
  stats : stats;
  cleaning_stats : Dfs_util.Stats.t array;  (* indexed by [clean_index] *)
  replacement_stats : Dfs_util.Stats.t array;  (* by [replace_index] *)
  dirty_ages : Dfs_obs.Metrics.Acc.t;
}

let create ?(config = default_config) ?(dirty_ages = Dfs_obs.Metrics.Acc.create ())
    backend =
  (* The dense arrays are the store; the public assoc lists share the
     same (mutable) [Stats.t] values, so both views always agree. *)
  let cleaning_stats = Array.init 5 (fun _ -> Dfs_util.Stats.create ()) in
  let replacement_stats = Array.init 2 (fun _ -> Dfs_util.Stats.create ()) in
  let rec sentinel =
    {
      b_file = File.of_int 0;
      b_index = -1;
      dirty = false;
      dirtied_at = 0.0;
      last_write = 0.0;
      last_ref = 0.0;
      dirty_high = 0;
      prev = sentinel;
      next = sentinel;
    }
  in
  {
    cfg = config;
    backend;
    lru = sentinel;
    resident = 0;
    files = Itbl.create 256;
    dirty_files = Itbl.create 64;
    capacity = max 1 config.capacity_blocks;
    dirty_count = 0;
    stats =
      {
        all = fresh_class_stats ();
        file = fresh_class_stats ();
        paging = fresh_class_stats ();
        migrated = fresh_class_stats ();
        writeback_bytes = 0;
        dirty_bytes_discarded = 0;
        cleanings =
          List.map
            (fun r -> (r, cleaning_stats.(clean_index r)))
            [ Clean_delay; Clean_fsync; Clean_recall; Clean_vm; Clean_eviction ];
        replacements =
          List.map
            (fun r -> (r, replacement_stats.(replace_index r)))
            [ Replace_for_block; Replace_to_vm ];
      };
    cleaning_stats;
    replacement_stats;
    dirty_ages;
  }

let config t = t.cfg

let capacity t = t.capacity

let size t = t.resident

let resident_bytes t = size t * t.cfg.block_size

let stats t = t.stats

let dirty_blocks t = t.dirty_count

(* Post-simulation memory release: the block store, per-file index and
   dirty-file tracking go away; [stats] (all counters and timing
   distributions) survive untouched.  Dirty data is dropped without
   writeback, so this must only run once the cache will see no further
   reads or writes. *)
let drop_contents t =
  t.lru.prev <- t.lru;
  t.lru.next <- t.lru;
  t.resident <- 0;
  Itbl.reset t.files;
  Itbl.reset t.dirty_files;
  t.dirty_count <- 0

(* -- internal bookkeeping ------------------------------------------------ *)

let unlink b =
  b.prev.next <- b.next;
  b.next.prev <- b.prev

(* Link [b] at the MRU end, just before the sentinel. *)
let link_mru t b =
  let s = t.lru in
  b.prev <- s.prev;
  b.next <- s;
  s.prev.next <- b;
  s.prev <- b

let note_dirty t b =
  if not b.dirty then begin
    b.dirty <- true;
    t.dirty_count <- t.dirty_count + 1;
    let fid = File.to_int b.b_file in
    match Itbl.find t.dirty_files fid with
    | info ->
      info.dn <- info.dn + 1;
      if b.dirtied_at < info.earliest then info.earliest <- b.dirtied_at
    | exception Not_found ->
      Itbl.replace t.dirty_files fid { dn = 1; earliest = b.dirtied_at }
  end

let note_clean t b =
  if b.dirty then begin
    b.dirty <- false;
    b.dirty_high <- 0;
    t.dirty_count <- t.dirty_count - 1;
    let fid = File.to_int b.b_file in
    let info = Itbl.find t.dirty_files fid in
    if info.dn > 1 then info.dn <- info.dn - 1
    else Itbl.remove t.dirty_files fid
  end

let cleaning_stat t reason = t.cleaning_stats.(clean_index reason)

let replacement_stat t reason = t.replacement_stats.(replace_index reason)

let clean_block t ~now b ~reason =
  if b.dirty then begin
    let bytes = b.dirty_high in
    t.backend.writeback ~file:b.b_file ~index:b.b_index ~bytes ~reason;
    t.stats.writeback_bytes <- t.stats.writeback_bytes + bytes;
    Dfs_util.Stats.add (cleaning_stat t reason) (now -. b.last_write);
    Dfs_obs.Metrics.Acc.observe t.dirty_ages (now -. b.dirtied_at);
    if Dfs_obs.Profiler.admit () then
      Dfs_obs.Profiler.emit ~cat:"cache" ~name:"writeback" ~t0:now ~dur:0.0
        [
          ("file", Dfs_obs.Json.Int (File.to_int b.b_file));
          ("bytes", Dfs_obs.Json.Int bytes);
          ("reason", Dfs_obs.Json.String (clean_reason_name reason));
        ];
    note_clean t b
  end

(* Remove [b] from its file's table, and the table itself once empty (a
   file's next block gets a fresh 16-bucket table). *)
let unindex t b =
  let fid = File.to_int b.b_file in
  let tbl = Itbl.find t.files fid in
  Itbl.remove tbl b.b_index;
  if Itbl.length tbl = 0 then Itbl.remove t.files fid

let drop_block t b ~discard_dirty =
  if b.dirty then begin
    if discard_dirty then
      t.stats.dirty_bytes_discarded <-
        t.stats.dirty_bytes_discarded + b.dirty_high;
    note_clean t b
  end;
  unindex t b;
  unlink b;
  t.resident <- t.resident - 1

let evict_one t ~now ~reason =
  let b = t.lru.next in
  if b == t.lru then false
  else begin
    unlink b;
    t.resident <- t.resident - 1;
    (* A dirty victim must reach the server before its page is reused. *)
    (match reason with
    | Replace_to_vm -> clean_block t ~now b ~reason:Clean_vm
    | Replace_for_block -> clean_block t ~now b ~reason:Clean_eviction);
    Dfs_util.Stats.add (replacement_stat t reason) (now -. b.last_ref);
    if Dfs_obs.Profiler.admit () then
      Dfs_obs.Profiler.emit ~cat:"cache" ~name:"evict" ~t0:now ~dur:0.0
        [
          ("file", Dfs_obs.Json.Int (File.to_int b.b_file));
          ("idle_s", Dfs_obs.Json.Float (now -. b.last_ref));
        ];
    unindex t b;
    true
  end

(* Insert a new block for [file]/[index] at the MRU end.  The file's table
   is looked up after the evictions, which may have removed it. *)
let insert_block t ~now ~file ~fid ~index =
  while t.resident >= t.capacity do
    if not (evict_one t ~now ~reason:Replace_for_block) then
      (* capacity is >= 1 and the LRU is non-empty whenever size >= capacity *)
      assert false
  done;
  let b =
    {
      b_file = file;
      b_index = index;
      dirty = false;
      dirtied_at = now;
      last_write = now;
      last_ref = now;
      dirty_high = 0;
      prev = t.lru;
      next = t.lru;
    }
  in
  link_mru t b;
  t.resident <- t.resident + 1;
  let tbl =
    match Itbl.find t.files fid with
    | tbl -> tbl
    | exception Not_found ->
      let tbl = Itbl.create 16 in
      Itbl.replace t.files fid tbl;
      tbl
  in
  Itbl.replace tbl index b;
  b

(* Raises [Not_found] for a non-resident block. *)
let find_block t ~fid ~index = Itbl.find (Itbl.find t.files fid) index

let touch t b ~now =
  b.last_ref <- now;
  if b.next != t.lru then begin
    unlink b;
    link_mru t b
  end

(* -- stats helpers ------------------------------------------------------- *)

let stats_of_class t = function
  | Class_file -> t.stats.file
  | Class_paging -> t.stats.paging

let add_reads s ~ops ~bytes ~hits ~fetched =
  s.read_ops <- s.read_ops + ops;
  s.bytes_read <- s.bytes_read + bytes;
  s.read_hits <- s.read_hits + hits;
  s.read_misses <- s.read_misses + (ops - hits);
  s.bytes_fetched <- s.bytes_fetched + fetched

let add_writes s ~ops ~bytes ~fetches ~fetch_bytes =
  s.write_ops <- s.write_ops + ops;
  s.bytes_written <- s.bytes_written + bytes;
  s.write_fetches <- s.write_fetches + fetches;
  s.write_fetch_bytes <- s.write_fetch_bytes + fetch_bytes

(* -- data path ----------------------------------------------------------- *)

(* [read] and [write] walk the blocks overlapped by [off, off+len) in one
   loop, then update the stats once: the per-block byte ranges
   partition the request, so the bytes counted are [len].  The file's
   table is looked up per block, since an insert may evict the file's
   last block and with it the table. *)
let read t ~now ~cls ~migrated ~file ~file_size ~off ~len =
  if len > 0 then begin
    let bs = t.cfg.block_size in
    let fid = File.to_int file in
    let first = off / bs and last = (off + len - 1) / bs in
    let hits = ref 0 and fetched = ref 0 in
    for index = first to last do
      match find_block t ~fid ~index with
      | b ->
        incr hits;
        touch t b ~now
      | exception Not_found ->
        let block_start = index * bs in
        let avail = Int.max 0 (Int.min bs (file_size - block_start)) in
        t.backend.fetch ~cls ~file ~index ~bytes:avail;
        fetched := !fetched + avail;
        if Dfs_obs.Profiler.admit () then
          Dfs_obs.Profiler.emit ~cat:"cache" ~name:"fill" ~t0:now ~dur:0.0
            [ ("file", Dfs_obs.Json.Int fid); ("bytes", Dfs_obs.Json.Int avail) ];
        ignore (insert_block t ~now ~file ~fid ~index)
    done;
    let ops = last - first + 1 and hits = !hits and fetched = !fetched in
    add_reads t.stats.all ~ops ~bytes:len ~hits ~fetched;
    add_reads (stats_of_class t cls) ~ops ~bytes:len ~hits ~fetched;
    if migrated then add_reads t.stats.migrated ~ops ~bytes:len ~hits ~fetched
  end

let write t ~now ~cls ~migrated ~file ~file_size ~off ~len =
  if len > 0 then begin
    let bs = t.cfg.block_size in
    let fid = File.to_int file in
    let first = off / bs and last = (off + len - 1) / bs in
    let fetches = ref 0 and fetch_bytes = ref 0 in
    for index = first to last do
      let block_start = index * bs in
      let lo = Int.max off block_start - block_start in
      let hi = Int.min (off + len) (block_start + bs) - block_start in
      let b =
        match find_block t ~fid ~index with
        | b -> b
        | exception Not_found ->
          let existing = Int.max 0 (Int.min bs (file_size - block_start)) in
          (* A partial write of a non-resident block that already holds
             data must fetch the block first (a "write fetch"), and so
             must an overwrite of the block's head only, whose tail must
             survive; writes covering all existing data need no fetch. *)
          if (lo > 0 && existing > 0) || (lo = 0 && hi < existing) then begin
            t.backend.fetch ~cls ~file ~index ~bytes:existing;
            incr fetches;
            fetch_bytes := !fetch_bytes + existing
          end;
          insert_block t ~now ~file ~fid ~index
      in
      if not b.dirty then b.dirtied_at <- now;
      note_dirty t b;
      b.last_write <- now;
      (* Writebacks cover the block from its start to the end of the new
         data — the append behaviour the paper blames for writeback-traffic
         variance. *)
      if hi > b.dirty_high then b.dirty_high <- hi;
      touch t b ~now
    done;
    let ops = last - first + 1
    and fetches = !fetches
    and fetch_bytes = !fetch_bytes in
    add_writes t.stats.all ~ops ~bytes:len ~fetches ~fetch_bytes;
    add_writes (stats_of_class t cls) ~ops ~bytes:len ~fetches ~fetch_bytes;
    if migrated then
      add_writes t.stats.migrated ~ops ~bytes:len ~fetches ~fetch_bytes
  end

let blocks_of_file t file =
  match Itbl.find_opt t.files (File.to_int file) with
  | None -> []
  | Some tbl -> Itbl.fold (fun _ b acc -> b :: acc) tbl []

(* Clean in place: [clean_block] never removes entries from the file's
   block table, so we can iterate it directly instead of materializing a
   [blocks_of_file] list.  ([invalidate] still takes the list — dropping
   blocks mutates the table under iteration.) *)
let clean_file t ~now ~file ~reason =
  match Itbl.find_opt t.files (File.to_int file) with
  | None -> ()
  | Some tbl -> Itbl.iter (fun _ b -> clean_block t ~now b ~reason) tbl

let fsync t ~now ~file = clean_file t ~now ~file ~reason:Clean_fsync

let recall t ~now ~file = clean_file t ~now ~file ~reason:Clean_recall

let invalidate t ~now ~file =
  ignore now;
  List.iter (fun b -> drop_block t b ~discard_dirty:true) (blocks_of_file t file)

let flush_and_invalidate t ~now ~file =
  clean_file t ~now ~file ~reason:Clean_recall;
  invalidate t ~now ~file

let delete t ~now ~file = invalidate t ~now ~file

let dirty_bytes t =
  Itbl.fold
    (fun fid _ acc ->
      match Itbl.find_opt t.files fid with
      | None -> acc
      | Some tbl ->
        Itbl.fold
          (fun _ b acc -> if b.dirty then acc + b.dirty_high else acc)
          tbl acc)
    t.dirty_files 0

let dirty_file_ids t =
  List.sort compare (Itbl.fold (fun fid _ acc -> fid :: acc) t.dirty_files [])

let crash t ~now =
  ignore now;
  let lost = dirty_bytes t in
  (* Volatile memory is gone: every block leaves, dirty data silently.
     The loss is NOT counted as [dirty_bytes_discarded] — that stat is
     the paper's deleted-before-writeback {e saving}; crash loss is the
     delayed-write {e cost} and is accounted by the fault injector. *)
  let all =
    Itbl.fold
      (fun _ tbl acc -> Itbl.fold (fun _ b acc -> b :: acc) tbl acc)
      t.files []
  in
  List.iter (fun b -> drop_block t b ~discard_dirty:false) all;
  lost

let tick t ~now =
  (* Any file with a block dirty for [writeback_delay] has ALL its dirty
     blocks written back — Sprite's policy.  [dirty_files.earliest] is a
     lower bound on each file's oldest dirty timestamp, so files whose
     bound hasn't aged out are skipped without touching their blocks;
     only plausible candidates get a per-block verify.  A candidate that
     turns out fresh (its bound was stale) has the bound tightened to
     the true minimum so it won't re-trip every tick. *)
  let candidates =
    Itbl.fold
      (fun fid info acc ->
        if now -. info.earliest >= t.cfg.writeback_delay then
          (fid, info) :: acc
        else acc)
      t.dirty_files []
  in
  List.iter
    (fun (fid, info) ->
      let file = File.of_int fid in
      let expired = ref false in
      let oldest = ref infinity in
      (match Itbl.find_opt t.files fid with
      | None -> ()
      | Some tbl ->
        Itbl.iter
          (fun _ b ->
            if b.dirty then begin
              if now -. b.dirtied_at >= t.cfg.writeback_delay then
                expired := true;
              if b.dirtied_at < !oldest then oldest := b.dirtied_at
            end)
          tbl);
      if !expired then clean_file t ~now ~file ~reason:Clean_delay
      else if !oldest < infinity then info.earliest <- !oldest)
    candidates

let set_capacity t ~now blocks =
  let blocks = max t.cfg.min_capacity_blocks blocks in
  t.capacity <- max 1 blocks;
  while t.resident > t.capacity do
    if not (evict_one t ~now ~reason:Replace_to_vm) then assert false
  done

(* The length of the LRU list followed by [step] from the sentinel,
   checking each block with [f]; fails past [resident] blocks. *)
let walk_lru t step f =
  let rec go b n =
    if b == t.lru then n
    else begin
      assert (n < t.resident);
      f b;
      go (step b) (n + 1)
    end
  in
  go (step t.lru) 0

let check_invariants t =
  let indexed = Itbl.fold (fun _ tbl acc -> acc + Itbl.length tbl) t.files 0 in
  assert (indexed = t.resident);
  assert (t.resident <= t.capacity);
  (* The LRU list, walked both ways: the links agree, it holds exactly
     [resident] blocks, and each one is the block its file's table holds. *)
  let indexed_as b =
    match find_block t ~fid:(File.to_int b.b_file) ~index:b.b_index with
    | b' -> b' == b
    | exception Not_found -> false
  in
  let forward =
    walk_lru t
      (fun b -> b.next)
      (fun b -> assert (b.next.prev == b && b.prev.next == b && indexed_as b))
  in
  assert (forward = t.resident && walk_lru t (fun b -> b.prev) ignore = t.resident);
  let dirty = ref 0 in
  Itbl.iter
    (fun _ tbl -> Itbl.iter (fun _ b -> if b.dirty then incr dirty) tbl)
    t.files;
  assert (!dirty = t.dirty_count);
  let per_file_dirty = Itbl.create 16 in
  Itbl.iter
    (fun fid tbl ->
      let n = Itbl.fold (fun _ b acc -> if b.dirty then acc + 1 else acc) tbl 0 in
      if n > 0 then Itbl.replace per_file_dirty fid n)
    t.files;
  assert (Itbl.length per_file_dirty = Itbl.length t.dirty_files);
  Itbl.iter
    (fun fid info ->
      assert (Itbl.find_opt per_file_dirty fid = Some info.dn);
      (* [earliest] must never overshoot the file's true oldest dirty
         timestamp — staleness is only allowed in the early direction. *)
      let tbl = Itbl.find t.files fid in
      Itbl.iter
        (fun _ b -> if b.dirty then assert (info.earliest <= b.dirtied_at))
        tbl)
    t.dirty_files
