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
   swaps and allocates nothing.  A dirty block is also linked into its
   file's dirty list by [d_prev] and [d_next], oldest [dirtied_at] first.
   A block is dirty exactly when [dirty_high] > 0: a write covers at
   least one byte of every block it touches, and cleaning sets it to 0. *)
type block = {
  b_entry : entry;
  b_index : int;
  b_seq : int;  (* the cache's inserts before this one *)
  mutable dirtied_at : float;  (* first dirtied since last clean *)
  mutable last_write : float;
  mutable last_ref : float;
  mutable dirty_high : int;  (* writeback extent, from the block start *)
  mutable prev : block;  (* towards the LRU end *)
  mutable next : block;  (* towards the MRU end *)
  mutable d_prev : block;  (* towards the oldest dirty block, or [none] *)
  mutable d_next : block;  (* towards the newest, or [none] *)
}

(* One per file with a resident block, dropped with its last block. *)
and entry = {
  e_fid : int;
  mutable slots : block array;  (* the file's blocks by [b_index] ([Slots]) *)
  mutable count : int;  (* resident blocks *)
  mutable buckets : int;  (* see [writeback_order] *)
  mutable dn : int;  (* dirty blocks *)
  mutable d_head : block;  (* oldest dirty block, or [none] *)
  mutable d_tail : block;  (* newest dirty block, or [none] *)
}

(* The empty slot and the end of every dirty list, and the entry of a
   file with no resident block.  Every cache shares them; nothing writes
   to them. *)
let rec none =
  {
    b_entry = no_entry;
    b_index = -1;
    b_seq = -1;
    dirtied_at = 0.0;
    last_write = 0.0;
    last_ref = 0.0;
    dirty_high = 0;
    prev = none;
    next = none;
    d_prev = none;
    d_next = none;
  }

and no_entry =
  {
    e_fid = -1;
    slots = [| none |];
    count = 0;
    buckets = 16;
    dn = 0;
    d_head = none;
    d_tail = none;
  }

(* Open addressing on int keys: a power-of-two array of members with
   [empty] in the free slots, at most three quarters full.  A key's probe
   starts at its Fibonacci hash (the top bits of the key times 2^63 over
   the golden ratio) and walks forward; removal shifts the rest of the
   run back, so there are no tombstones, and a member costs one array
   word and no allocation. *)
module Slots (M : sig
  type t

  val key : t -> int

  val empty : t
end) =
struct
  let home k mask = (((k * 0x4F1BBCDCBFA53E0B) lsr 32) * (mask + 1)) lsr 31

  let create n = Array.make n M.empty

  (* The member keyed [k], or [M.empty]. *)
  let find slots k =
    let mask = Array.length slots - 1 in
    let i = ref (home k mask) in
    while
      let x = Array.unsafe_get slots !i in
      x != M.empty && M.key x <> k
    do
      i := (!i + 1) land mask
    done;
    Array.unsafe_get slots !i

  let place slots x =
    let mask = Array.length slots - 1 in
    let i = ref (home (M.key x) mask) in
    while Array.unsafe_get slots !i != M.empty do
      i := (!i + 1) land mask
    done;
    Array.unsafe_set slots !i x

  (* [slots], or a copy twice its size, with [x] added to its [n]
     members; [x]'s key must be absent. *)
  let add slots ~n x =
    let slots =
      if 4 * (n + 1) <= 3 * Array.length slots then slots
      else begin
        let bigger = create (2 * Array.length slots) in
        Array.iter (fun y -> if y != M.empty then place bigger y) slots;
        bigger
      end
    in
    place slots x;
    slots

  (* [x] must be a member. *)
  let remove slots x =
    let mask = Array.length slots - 1 in
    let hole = ref (home (M.key x) mask) in
    while
      let y = Array.unsafe_get slots !hole in
      y != x && y != M.empty
    do
      hole := (!hole + 1) land mask
    done;
    assert (Array.unsafe_get slots !hole == x);
    (* A later member of the run moves into the hole unless its home
       lies after the hole, where a probe for it starts past the hole. *)
    let j = ref ((!hole + 1) land mask) in
    while Array.unsafe_get slots !j != M.empty do
      let y = Array.unsafe_get slots !j in
      if (!j - home (M.key y) mask) land mask >= (!j - !hole) land mask then begin
        Array.unsafe_set slots !hole y;
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    Array.unsafe_set slots !hole M.empty
end

module Blocks = Slots (struct
  type t = block

  let key b = b.b_index

  let empty = none
end)

module Entries = Slots (struct
  type t = entry

  let key e = e.e_fid

  let empty = no_entry
end)

(* [Itbl] hashes with [Hashtbl.hash], exactly as the generic [Hashtbl]
   does: [tick] visits [dirty_files] in its bucket order. *)
module Itbl = Dfs_util.Itbl

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
  mutable files : entry array;  (* the entries by file id ([Slots]) *)
  mutable n_files : int;
  dirty_files : entry Itbl.t;  (* the entries with a dirty block *)
  mutable inserts : int;
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
      b_entry = no_entry;
      b_index = -1;
      b_seq = -1;
      dirtied_at = 0.0;
      last_write = 0.0;
      last_ref = 0.0;
      dirty_high = 0;
      prev = sentinel;
      next = sentinel;
      d_prev = none;
      d_next = none;
    }
  in
  {
    cfg = config;
    backend;
    lru = sentinel;
    resident = 0;
    files = Entries.create 64;
    n_files = 0;
    dirty_files = Itbl.create 64;
    inserts = 0;
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

let capacity t = t.capacity

let size t = t.resident

let resident_bytes t = size t * t.cfg.block_size

let stats t = t.stats

let dirty_blocks t = t.dirty_count

(* Every block leaves without a writeback; [dirty_files] is the caller's. *)
let forget_blocks t =
  t.lru.prev <- t.lru;
  t.lru.next <- t.lru;
  t.resident <- 0;
  t.files <- Entries.create 64;
  t.n_files <- 0;
  t.dirty_count <- 0

(* Post-simulation memory release: the block store, per-file index and
   dirty-file tracking go away; [stats] (all counters and timing
   distributions) survive untouched.  Dirty data is dropped without
   writeback, so this must only run once the cache will see no further
   reads or writes. *)
let drop_contents t =
  forget_blocks t;
  Itbl.reset t.dirty_files

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

(* The entry of file [fid], or [no_entry]. *)
let find_entry t fid = Entries.find t.files fid

(* The block, or [none] if it is not resident. *)
let find_block e index = Blocks.find e.slots index

(* [b], clean, joins its file's dirty list: behind every block dirtied no
   later than [b.dirtied_at], which is at the tail when time only moves
   forward. *)
let note_dirty t b =
  let e = b.b_entry in
  let p = ref e.d_tail in
  while !p != none && !p.dirtied_at > b.dirtied_at do
    p := !p.d_prev
  done;
  let p = !p in
  let n = if p == none then e.d_head else p.d_next in
  b.d_prev <- p;
  b.d_next <- n;
  if p == none then e.d_head <- b else p.d_next <- b;
  if n == none then e.d_tail <- b else n.d_prev <- b;
  t.dirty_count <- t.dirty_count + 1;
  e.dn <- e.dn + 1;
  if e.dn = 1 then Itbl.replace t.dirty_files e.e_fid e

let note_clean t b =
  let e = b.b_entry in
  let p = b.d_prev and n = b.d_next in
  if p == none then e.d_head <- n else p.d_next <- n;
  if n == none then e.d_tail <- p else n.d_prev <- p;
  b.d_prev <- none;
  b.d_next <- none;
  b.dirty_high <- 0;
  t.dirty_count <- t.dirty_count - 1;
  e.dn <- e.dn - 1;
  if e.dn = 0 then Itbl.remove t.dirty_files e.e_fid

let cleaning_stat t reason = t.cleaning_stats.(clean_index reason)

let replacement_stat t reason = t.replacement_stats.(replace_index reason)

let clean_block t ~now b ~reason =
  if b.dirty_high > 0 then begin
    let bytes = b.dirty_high and fid = b.b_entry.e_fid in
    t.backend.writeback ~file:(File.of_int fid) ~index:b.b_index ~bytes ~reason;
    t.stats.writeback_bytes <- t.stats.writeback_bytes + bytes;
    Dfs_util.Stats.add (cleaning_stat t reason) (now -. b.last_write);
    Dfs_obs.Metrics.Acc.observe t.dirty_ages (now -. b.dirtied_at);
    if Dfs_obs.Profiler.admit () then
      Dfs_obs.Profiler.emit ~cat:"cache" ~name:"writeback" ~t0:now ~dur:0.0
        [
          ("file", Dfs_obs.Json.Int fid);
          ("bytes", Dfs_obs.Json.Int bytes);
          ("reason", Dfs_obs.Json.String (clean_reason_name reason));
        ];
    note_clean t b
  end

(* Drop the entry [e] from the index; its blocks have left the LRU. *)
let forget_entry t e =
  Entries.remove t.files e;
  t.n_files <- t.n_files - 1;
  e.count <- 0

(* Remove [b], clean and unlinked, from its file's slots, and the entry
   with its last block. *)
let unindex t b =
  let e = b.b_entry in
  Blocks.remove e.slots b;
  e.count <- e.count - 1;
  if e.count = 0 then forget_entry t e

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
          ("file", Dfs_obs.Json.Int b.b_entry.e_fid);
          ("idle_s", Dfs_obs.Json.Float (now -. b.last_ref));
        ];
    unindex t b;
    true
  end

(* Insert a new block for [index] of file [fid] at the MRU end.  [e] is
   the file's entry as the caller found it; the evictions may have
   dropped it (its count is then 0), so the new block's [b_entry] is the
   one to use afterwards. *)
let insert_block t ~now e ~fid ~index =
  while t.resident >= t.capacity do
    if not (evict_one t ~now ~reason:Replace_for_block) then
      (* capacity is >= 1 and the LRU is non-empty whenever size >= capacity *)
      assert false
  done;
  let e =
    if e.count > 0 then e
    else begin
      let e =
        {
          e_fid = fid;
          slots = Blocks.create 4;
          count = 0;
          buckets = 16;
          dn = 0;
          d_head = none;
          d_tail = none;
        }
      in
      t.files <- Entries.add t.files ~n:t.n_files e;
      t.n_files <- t.n_files + 1;
      e
    end
  in
  let b =
    {
      b_entry = e;
      b_index = index;
      b_seq = t.inserts;
      dirtied_at = now;
      last_write = now;
      last_ref = now;
      dirty_high = 0;
      prev = t.lru;
      next = t.lru;
      d_prev = none;
      d_next = none;
    }
  in
  t.inserts <- t.inserts + 1;
  link_mru t b;
  t.resident <- t.resident + 1;
  e.slots <- Blocks.add e.slots ~n:e.count b;
  e.count <- e.count + 1;
  if e.count > 2 * e.buckets then e.buckets <- 2 * e.buckets;
  b

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
   entry is looked up once; after a miss it is the inserted block's. *)
let read t ~now ~cls ~migrated ~file ~file_size ~off ~len =
  if len > 0 then begin
    let bs = t.cfg.block_size in
    let fid = File.to_int file in
    let first = off / bs and last = (off + len - 1) / bs in
    let e = ref (find_entry t fid) in
    let hits = ref 0 and fetched = ref 0 in
    for index = first to last do
      let b = find_block !e index in
      if b != none then begin
        incr hits;
        touch t b ~now
      end
      else begin
        let block_start = index * bs in
        let avail = Int.max 0 (Int.min bs (file_size - block_start)) in
        t.backend.fetch ~cls ~file ~index ~bytes:avail;
        fetched := !fetched + avail;
        if Dfs_obs.Profiler.admit () then
          Dfs_obs.Profiler.emit ~cat:"cache" ~name:"fill" ~t0:now ~dur:0.0
            [ ("file", Dfs_obs.Json.Int fid); ("bytes", Dfs_obs.Json.Int avail) ];
        e := (insert_block t ~now !e ~fid ~index).b_entry
      end
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
    let e = ref (find_entry t fid) in
    let fetches = ref 0 and fetch_bytes = ref 0 in
    for index = first to last do
      let block_start = index * bs in
      let lo = Int.max off block_start - block_start in
      let hi = Int.min (off + len) (block_start + bs) - block_start in
      let b =
        let b = find_block !e index in
        if b != none then b
        else begin
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
          let b = insert_block t ~now !e ~fid ~index in
          e := b.b_entry;
          b
        end
      in
      if b.dirty_high = 0 then begin
        b.dirtied_at <- now;
        note_dirty t b
      end;
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

(* The order in which a file's dirty blocks are written back: the order
   in which [Hashtbl.iter] walked the per-file table that indexed the
   blocks before, a [Hashtbl.Make] on [Hashtbl.hash] created at 16
   buckets, doubled whenever it held more than twice as many blocks as
   buckets, and dropped with the file's last block ([buckets] replays
   that count).  That is bucket by bucket, and in each bucket newest
   insert first: OCaml 5.1's table prepends on insert and keeps each
   bucket's order when it resizes.  Every printed table depends on the
   order, through the server cache's LRU.  Each block's bucket is
   computed once, ahead of the sort. *)
let writeback_order e =
  let mask = e.buckets - 1 in
  let keyed = Array.make e.dn (0, none) and d = ref e.d_head in
  for i = 0 to e.dn - 1 do
    keyed.(i) <- (Hashtbl.hash !d.b_index land mask, !d);
    d := !d.d_next
  done;
  Array.sort
    (fun (bucket_a, a) (bucket_b, b) ->
      if bucket_a <> bucket_b then Int.compare bucket_a bucket_b
      else Int.compare b.b_seq a.b_seq)
    keyed;
  Array.map snd keyed

let clean_entry t ~now e ~reason =
  if e.dn > 0 then
    Array.iter (fun b -> clean_block t ~now b ~reason) (writeback_order e)

let clean_file t ~now ~file ~reason =
  clean_entry t ~now (find_entry t (File.to_int file)) ~reason

let fsync t ~now ~file = clean_file t ~now ~file ~reason:Clean_fsync

let recall t ~now ~file = clean_file t ~now ~file ~reason:Clean_recall

let invalidate t ~now ~file =
  ignore now;
  let e = find_entry t (File.to_int file) in
  if e.count > 0 then begin
    Array.iter
      (fun b ->
        if b != none then begin
          t.stats.dirty_bytes_discarded <-
            t.stats.dirty_bytes_discarded + b.dirty_high;
          unlink b
        end)
      e.slots;
    t.resident <- t.resident - e.count;
    t.dirty_count <- t.dirty_count - e.dn;
    if e.dn > 0 then Itbl.remove t.dirty_files e.e_fid;
    forget_entry t e
  end

let flush_and_invalidate t ~now ~file =
  clean_file t ~now ~file ~reason:Clean_recall;
  invalidate t ~now ~file

let delete t ~now ~file = invalidate t ~now ~file

let dirty_bytes t =
  Itbl.fold
    (fun _ e acc ->
      let acc = ref acc and b = ref e.d_head in
      while !b != none do
        acc := !acc + !b.dirty_high;
        b := !b.d_next
      done;
      !acc)
    t.dirty_files 0

let dirty_file_ids t =
  List.sort compare (Itbl.fold (fun fid _ acc -> fid :: acc) t.dirty_files [])

let crash t ~now =
  ignore now;
  let lost = dirty_bytes t in
  (* Volatile memory is gone: every block leaves, dirty data silently.
     The loss is NOT counted as [dirty_bytes_discarded] — that stat is
     the paper's deleted-before-writeback {e saving}; crash loss is the
     delayed-write {e cost} and is accounted by the fault injector.
     [clear] keeps [dirty_files]' grown bucket array, as removing each
     file would. *)
  forget_blocks t;
  Itbl.clear t.dirty_files;
  lost

let tick t ~now =
  (* Any file with a block dirty for [writeback_delay] has ALL its dirty
     blocks written back — Sprite's policy.  The head of a file's dirty
     list is its oldest dirty block, so one comparison decides. *)
  let expired =
    Itbl.fold
      (fun _ e acc ->
        if now -. e.d_head.dirtied_at >= t.cfg.writeback_delay then e :: acc
        else acc)
      t.dirty_files []
  in
  List.iter (fun e -> clean_entry t ~now e ~reason:Clean_delay) expired

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
  (* The shared sentinels are untouched. *)
  assert (none.prev == none && none.next == none && none.d_prev == none);
  assert (none.d_next == none && none.dirty_high = 0);
  assert (no_entry.count = 0 && no_entry.dn = 0 && no_entry.d_head == none);
  assert (Array.length no_entry.slots = 1 && no_entry.slots.(0) == none);
  assert (t.resident <= t.capacity);
  (* The LRU list, walked both ways: the links agree, it holds exactly
     [resident] blocks, and a lookup finds each one through its file's
     entry, which the file index holds. *)
  let forward =
    walk_lru t
      (fun b -> b.next)
      (fun b ->
        assert (b.next.prev == b && b.prev.next == b);
        assert (find_entry t b.b_entry.e_fid == b.b_entry);
        assert (find_block b.b_entry b.b_index == b))
  in
  assert (forward = t.resident && walk_lru t (fun b -> b.prev) ignore = t.resident);
  let pow2 n = n > 0 && n land (n - 1) = 0 in
  assert (pow2 (Array.length t.files) && 4 * t.n_files <= 3 * Array.length t.files);
  let entries = ref 0 and blocks = ref 0 and dirty = ref 0 and dirty_files = ref 0 in
  Array.iter
    (fun e ->
      if e != no_entry then begin
        incr entries;
        (* Each entry: its count is its blocks; the slots are a
           power-of-two array at most three quarters full; the old
           table's bucket count is a power of two, at least 16, that its
           doublings kept at half the blocks or more. *)
        let n = ref 0 and dn = ref 0 in
        Array.iter
          (fun b ->
            if b != none then begin
              assert (b.b_entry == e);
              incr n;
              if b.dirty_high > 0 then incr dn
              else assert (b.d_prev == none && b.d_next == none)
            end)
          e.slots;
        assert (e.count > 0 && !n = e.count);
        assert (pow2 (Array.length e.slots) && 4 * e.count <= 3 * Array.length e.slots);
        assert (pow2 e.buckets && e.buckets >= 16 && e.count <= 2 * e.buckets);
        (* The dirty list: linked both ways, oldest first, exactly the
           file's dirty blocks. *)
        let listed = ref 0 and b = ref e.d_head and prev = ref none in
        while !b != none do
          let x = !b in
          assert (x.b_entry == e && x.dirty_high > 0 && x.d_prev == !prev);
          assert (!prev == none || !prev.dirtied_at <= x.dirtied_at);
          incr listed;
          prev := x;
          b := x.d_next
        done;
        assert (e.d_tail == !prev && !listed = !dn && e.dn = !dn);
        (* In [dirty_files] exactly when dirty. *)
        (match Itbl.find_opt t.dirty_files e.e_fid with
        | Some e' -> assert (e' == e && e.dn > 0)
        | None -> assert (e.dn = 0));
        if e.dn > 0 then incr dirty_files;
        blocks := !blocks + e.count;
        dirty := !dirty + e.dn
      end)
    t.files;
  assert (!entries = t.n_files && !blocks = t.resident);
  assert (!dirty = t.dirty_count && !dirty_files = Itbl.length t.dirty_files)
