(* A reference model of Dfs_cache.Block_cache for the state-machine tests
   in test_cache.ml: the LRU is a plain list, residency a list search.
   It records what the real cache must do on each operation: the fetches,
   the eviction victims (file and idle time, as the cache's "evict" trace
   spans carry them) and the writebacks, each newest first.

   The writeback order is the one the cache's per-file [Hashtbl]s gave
   before they were replaced by open addressing, and it is kept here with
   the very structure that produced it: each resident file's blocks in a
   [Hashtbl.Make] table on [Hashtbl.hash], created at 16 buckets, fed the
   same inserts and removes, and dropped when emptied; a clean walks it
   with [iter].  [dirty_files] (the files with a dirty block, on the same
   hash, created at 64 buckets) gives the order in which [tick] visits
   files, as it does in the cache. *)

module Bc = Dfs_cache.Block_cache

module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash = Hashtbl.hash
end)

type blk = {
  file : int;
  index : int;
  mutable dirty : bool;
  mutable dirtied_at : float;
  mutable last_ref : float;
  mutable high : int;  (* writeback extent *)
}

type t = {
  bs : int;
  delay : float;
  min_capacity : int;
  mutable capacity : int;
  mutable lru : blk list;  (* least recently used first *)
  tables : blk Itbl.t Itbl.t;  (* file -> block index -> block *)
  dirty_files : unit Itbl.t;
  stats : Bc.class_stats array;  (* all, file, paging, migrated *)
  mutable writeback_bytes : int;
  mutable discarded : int;
  mutable fetches : (int * int * int) list;
  mutable victims : (int * float) list;
  mutable writebacks : (int * int * int * Bc.clean_reason) list;
}

let fresh_stats () =
  {
    Bc.read_ops = 0;
    read_hits = 0;
    read_misses = 0;
    bytes_read = 0;
    bytes_fetched = 0;
    write_ops = 0;
    write_fetches = 0;
    write_fetch_bytes = 0;
    bytes_written = 0;
  }

let create ~bs ~delay ~capacity ~min_capacity =
  {
    bs;
    delay;
    min_capacity;
    capacity = max 1 capacity;
    lru = [];
    tables = Itbl.create 8;
    dirty_files = Itbl.create 64;
    stats = Array.init 4 (fun _ -> fresh_stats ());
    writeback_bytes = 0;
    discarded = 0;
    fetches = [];
    victims = [];
    writebacks = [];
  }

let size m = List.length m.lru

let dirty_blocks m = List.length (List.filter (fun b -> b.dirty) m.lru)

(* The statistics a request counts in: all, its class, and migrated. *)
let targets m ~paging ~migrated =
  let base = if paging then m.stats.(2) else m.stats.(1) in
  if migrated then [ m.stats.(0); base; m.stats.(3) ] else [ m.stats.(0); base ]

let file_dirty m file = List.exists (fun b -> b.file = file && b.dirty) m.lru

let clean m b reason =
  if b.dirty then begin
    m.writebacks <- (b.file, b.index, b.high, reason) :: m.writebacks;
    m.writeback_bytes <- m.writeback_bytes + b.high;
    b.dirty <- false;
    b.high <- 0;
    if not (file_dirty m b.file) then Itbl.remove m.dirty_files b.file
  end

(* Take [b], already off the LRU list, out of its file's table, and the
   table with its last block. *)
let unindex m b =
  let tbl = Itbl.find m.tables b.file in
  Itbl.remove tbl b.index;
  if Itbl.length tbl = 0 then Itbl.remove m.tables b.file

let evict m ~now ~dirty_reason =
  match m.lru with
  | [] -> assert false
  | b :: rest ->
    m.lru <- rest;
    clean m b dirty_reason;
    unindex m b;
    m.victims <- (b.file, now -. b.last_ref) :: m.victims

let touch m b ~now =
  b.last_ref <- now;
  m.lru <- List.filter (fun x -> x != b) m.lru @ [ b ]

let find m ~file ~index =
  List.find_opt (fun b -> b.file = file && b.index = index) m.lru

let insert m ~now ~file ~index =
  while size m >= m.capacity do
    evict m ~now ~dirty_reason:Bc.Clean_eviction
  done;
  let b =
    { file; index; dirty = false; dirtied_at = now; last_ref = now; high = 0 }
  in
  m.lru <- m.lru @ [ b ];
  let tbl =
    match Itbl.find_opt m.tables file with
    | Some tbl -> tbl
    | None ->
      let tbl = Itbl.create 16 in
      Itbl.replace m.tables file tbl;
      tbl
  in
  Itbl.replace tbl index b;
  b

let fetch m ~file ~index ~bytes = m.fetches <- (file, index, bytes) :: m.fetches

(* [f ~index ~start ~lo ~hi] for each block overlapped by [off, off+len):
   its index, its first byte, and the range within it. *)
let blocks m ~off ~len f =
  if len > 0 then
    for index = off / m.bs to (off + len - 1) / m.bs do
      let start = index * m.bs in
      f ~index ~start ~lo:(max off start - start)
        ~hi:(min (off + len) (start + m.bs) - start)
    done

let read m ~now ~paging ~migrated ~file ~file_size ~off ~len =
  let count f = List.iter f (targets m ~paging ~migrated) in
  blocks m ~off ~len (fun ~index ~start ~lo ~hi ->
      count (fun s ->
          s.read_ops <- s.read_ops + 1;
          s.bytes_read <- s.bytes_read + hi - lo);
      match find m ~file ~index with
      | Some b ->
        count (fun s -> s.read_hits <- s.read_hits + 1);
        touch m b ~now
      | None ->
        let avail = max 0 (min m.bs (file_size - start)) in
        fetch m ~file ~index ~bytes:avail;
        count (fun s ->
            s.read_misses <- s.read_misses + 1;
            s.bytes_fetched <- s.bytes_fetched + avail);
        ignore (insert m ~now ~file ~index))

let write m ~now ~paging ~migrated ~file ~file_size ~off ~len =
  let count f = List.iter f (targets m ~paging ~migrated) in
  blocks m ~off ~len (fun ~index ~start ~lo ~hi ->
      count (fun s ->
          s.write_ops <- s.write_ops + 1;
          s.bytes_written <- s.bytes_written + hi - lo);
      let b =
        match find m ~file ~index with
        | Some b -> b
        | None ->
          (* A write that leaves part of the block's existing data in
             place must fetch the block first. *)
          let existing = max 0 (min m.bs (file_size - start)) in
          if (lo > 0 && existing > 0) || (lo = 0 && hi < existing) then begin
            fetch m ~file ~index ~bytes:existing;
            count (fun s ->
                s.write_fetches <- s.write_fetches + 1;
                s.write_fetch_bytes <- s.write_fetch_bytes + existing)
          end;
          insert m ~now ~file ~index
      in
      if not b.dirty then begin
        b.dirty <- true;
        b.dirtied_at <- now;
        Itbl.replace m.dirty_files file ()
      end;
      b.high <- max b.high hi;
      touch m b ~now)

let clean_file m ~file reason =
  Option.iter (Itbl.iter (fun _ b -> clean m b reason)) (Itbl.find_opt m.tables file)

let invalidate m ~file =
  List.iter
    (fun b -> if b.file = file && b.dirty then m.discarded <- m.discarded + b.high)
    m.lru;
  m.lru <- List.filter (fun b -> b.file <> file) m.lru;
  Itbl.remove m.tables file;
  Itbl.remove m.dirty_files file

(* The delayed-write daemon: a file with any block dirty for [delay]
   seconds has all its dirty blocks written back.  The files expired are
   collected by folding [dirty_files] and cleaned in the list's order. *)
let tick m ~now =
  let expired file =
    List.exists (fun b -> b.file = file && b.dirty && now -. b.dirtied_at >= m.delay) m.lru
  in
  Itbl.fold (fun file () acc -> if expired file then file :: acc else acc) m.dirty_files []
  |> List.iter (fun file -> clean_file m ~file Bc.Clean_delay)

let set_capacity m ~now n =
  m.capacity <- max 1 (max m.min_capacity n);
  while size m > m.capacity do
    evict m ~now ~dirty_reason:Bc.Clean_vm
  done
