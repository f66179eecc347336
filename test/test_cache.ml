(* Tests for Dfs_cache.Block_cache: hit/miss accounting, write fetches,
   delayed writes, fsync, recall, invalidation, capacity negotiation. *)

module Bc = Dfs_cache.Block_cache
module File = Dfs_trace.Ids.File

let bs = Dfs_util.Units.block_size

type backend_log = {
  mutable fetches : (int * int * int) list;  (* file, index, bytes; newest first *)
  mutable writebacks : (int * int * int * Bc.clean_reason) list;
}

let make_cache ?(capacity = 64) ?(min_capacity = 1) ?(delay = 30.0) () =
  let log = { fetches = []; writebacks = [] } in
  let cache =
    Bc.create
      ~config:
        {
          Bc.block_size = bs;
          writeback_delay = delay;
          capacity_blocks = capacity;
          min_capacity_blocks = min_capacity;
        }
      {
        Bc.fetch =
          (fun ~cls:_ ~file ~index ~bytes ->
            log.fetches <- (File.to_int file, index, bytes) :: log.fetches);
        writeback =
          (fun ~file ~index ~bytes ~reason ->
            log.writebacks <-
              (File.to_int file, index, bytes, reason) :: log.writebacks);
      }
  in
  (cache, log)

let f id = File.of_int id

let read ?(now = 0.0) ?(migrated = false) cache ~file ~size ~off ~len =
  Bc.read cache ~now ~cls:Bc.Class_file ~migrated ~file:(f file)
    ~file_size:size ~off ~len

let write ?(now = 0.0) ?(migrated = false) cache ~file ~size ~off ~len =
  Bc.write cache ~now ~cls:Bc.Class_file ~migrated ~file:(f file)
    ~file_size:size ~off ~len

(* -- reads -------------------------------------------------------------------- *)

let test_cold_read_fetches () =
  let cache, log = make_cache () in
  read cache ~file:1 ~size:bs ~off:0 ~len:bs;
  Alcotest.(check int) "one fetch" 1 (List.length log.fetches);
  let s = (Bc.stats cache).all in
  Alcotest.(check int) "one read op" 1 s.read_ops;
  Alcotest.(check int) "one miss" 1 s.read_misses;
  Alcotest.(check int) "no hit" 0 s.read_hits;
  Alcotest.(check int) "bytes read" bs s.bytes_read;
  Alcotest.(check int) "bytes fetched" bs s.bytes_fetched

let test_warm_read_hits () =
  let cache, log = make_cache () in
  read cache ~file:1 ~size:bs ~off:0 ~len:bs;
  read cache ~file:1 ~size:bs ~off:0 ~len:bs;
  Alcotest.(check int) "still one fetch" 1 (List.length log.fetches);
  let s = (Bc.stats cache).all in
  Alcotest.(check int) "one hit" 1 s.read_hits;
  Alcotest.(check int) "one miss" 1 s.read_misses

let test_read_spanning_blocks () =
  let cache, log = make_cache () in
  read cache ~file:1 ~size:(3 * bs) ~off:0 ~len:(3 * bs);
  Alcotest.(check int) "three fetches" 3 (List.length log.fetches);
  Alcotest.(check int) "three resident blocks" 3 (Bc.size cache)

let test_read_partial_tail_fetch () =
  let cache, log = make_cache () in
  (* file is 100 bytes: fetching its block transfers only 100 bytes *)
  read cache ~file:1 ~size:100 ~off:0 ~len:100;
  (match log.fetches with
  | [ (_, 0, bytes) ] -> Alcotest.(check int) "partial fetch" 100 bytes
  | _ -> Alcotest.fail "expected one fetch of block 0");
  Alcotest.(check int) "bytes fetched stat" 100
    (Bc.stats cache).all.bytes_fetched

let test_read_offset_within_block () =
  let cache, _ = make_cache () in
  read cache ~file:1 ~size:(2 * bs) ~off:(bs / 2) ~len:bs;
  let s = (Bc.stats cache).all in
  (* spans blocks 0 and 1 *)
  Alcotest.(check int) "two block ops" 2 s.read_ops;
  Alcotest.(check int) "app bytes" bs s.bytes_read

let test_migrated_class_accounting () =
  let cache, _ = make_cache () in
  read ~migrated:true cache ~file:1 ~size:bs ~off:0 ~len:bs;
  read ~migrated:false cache ~file:2 ~size:bs ~off:0 ~len:bs;
  let s = Bc.stats cache in
  Alcotest.(check int) "migrated ops" 1 s.migrated.read_ops;
  Alcotest.(check int) "all ops" 2 s.all.read_ops;
  Alcotest.(check int) "file class ops" 2 s.file.read_ops;
  Alcotest.(check int) "paging untouched" 0 s.paging.read_ops

let test_paging_class_accounting () =
  let cache, _ = make_cache () in
  Bc.read cache ~now:0.0 ~cls:Bc.Class_paging ~migrated:false ~file:(f 1)
    ~file_size:bs ~off:0 ~len:bs;
  let s = Bc.stats cache in
  Alcotest.(check int) "paging ops" 1 s.paging.read_ops;
  Alcotest.(check int) "file class untouched" 0 s.file.read_ops

(* -- writes ------------------------------------------------------------------- *)

let test_write_dirties () =
  let cache, log = make_cache () in
  write cache ~file:1 ~size:0 ~off:0 ~len:bs;
  Alcotest.(check int) "dirty blocks" 1 (Bc.dirty_blocks cache);
  Alcotest.(check int) "no writeback yet" 0 (List.length log.writebacks);
  Alcotest.(check int) "no fetch for a fresh full block" 0
    (List.length log.fetches)

let test_append_no_write_fetch () =
  let cache, log = make_cache () in
  (* appending past EOF must not fetch anything *)
  write cache ~file:1 ~size:0 ~off:0 ~len:100;
  write cache ~file:1 ~size:100 ~off:100 ~len:100;
  Alcotest.(check int) "no fetches" 0 (List.length log.fetches);
  Alcotest.(check int) "no write fetches" 0 (Bc.stats cache).all.write_fetches

let test_partial_write_nonresident_fetches () =
  let cache, log = make_cache () in
  (* file already has 2 blocks of data on the server; we overwrite a few
     bytes in the middle of block 1 without having it cached *)
  write cache ~file:1 ~size:(2 * bs) ~off:(bs + 10) ~len:50;
  Alcotest.(check int) "one write fetch" 1 (Bc.stats cache).all.write_fetches;
  Alcotest.(check int) "fetched the block" 1 (List.length log.fetches);
  Alcotest.(check int) "write fetch bytes" bs
    (Bc.stats cache).all.write_fetch_bytes

let test_partial_write_resident_no_fetch () =
  let cache, log = make_cache () in
  read cache ~file:1 ~size:(2 * bs) ~off:bs ~len:bs;
  log.fetches <- [];
  write cache ~file:1 ~size:(2 * bs) ~off:(bs + 10) ~len:50;
  Alcotest.(check int) "no fetch when resident" 0 (List.length log.fetches);
  Alcotest.(check int) "no write fetch" 0 (Bc.stats cache).all.write_fetches

let test_full_block_overwrite_no_fetch () =
  let cache, log = make_cache () in
  write cache ~file:1 ~size:(2 * bs) ~off:bs ~len:bs;
  Alcotest.(check int) "full-block overwrite needs no fetch" 0
    (List.length log.fetches)

(* -- delayed write ------------------------------------------------------------- *)

let test_delayed_writeback_after_30s () =
  let cache, log = make_cache () in
  write ~now:0.0 cache ~file:1 ~size:0 ~off:0 ~len:bs;
  Bc.tick cache ~now:10.0;
  Alcotest.(check int) "too early" 0 (List.length log.writebacks);
  Bc.tick cache ~now:30.0;
  Alcotest.(check int) "flushed at 30s" 1 (List.length log.writebacks);
  (match log.writebacks with
  | [ (_, _, bytes, reason) ] ->
    Alcotest.(check int) "whole dirty extent" bs bytes;
    Alcotest.(check bool) "reason delay" true (reason = Bc.Clean_delay)
  | _ -> Alcotest.fail "one writeback expected");
  Alcotest.(check int) "clean now" 0 (Bc.dirty_blocks cache);
  Bc.tick cache ~now:60.0;
  Alcotest.(check int) "no double flush" 1 (List.length log.writebacks)

let test_delayed_write_flushes_whole_file () =
  let cache, log = make_cache () in
  write ~now:0.0 cache ~file:1 ~size:0 ~off:0 ~len:bs;
  (* second block dirtied much later; Sprite flushes ALL dirty blocks of a
     file once any of them expires *)
  write ~now:25.0 cache ~file:1 ~size:bs ~off:bs ~len:bs;
  Bc.tick cache ~now:31.0;
  Alcotest.(check int) "both blocks flushed" 2 (List.length log.writebacks)

let test_writeback_extent_append () =
  let cache, log = make_cache () in
  (* append 100 bytes at offset 300 of a fresh block: the writeback covers
     block start through the end of the appended data *)
  write ~now:0.0 cache ~file:1 ~size:300 ~off:300 ~len:100;
  Bc.fsync cache ~now:1.0 ~file:(f 1);
  (match log.writebacks with
  | [ (_, 0, bytes, _) ] -> Alcotest.(check int) "head-to-high-water" 400 bytes
  | _ -> Alcotest.fail "single writeback expected");
  Alcotest.(check int) "writeback_bytes stat" 400
    (Bc.stats cache).writeback_bytes

let test_fsync_reason () =
  let cache, log = make_cache () in
  write cache ~file:1 ~size:0 ~off:0 ~len:10;
  Bc.fsync cache ~now:1.0 ~file:(f 1);
  (match log.writebacks with
  | [ (_, _, _, reason) ] ->
    Alcotest.(check bool) "fsync reason" true (reason = Bc.Clean_fsync)
  | _ -> Alcotest.fail "one writeback");
  Alcotest.(check int) "fsync leaves block resident" 1 (Bc.size cache)

let test_recall_reason_and_residency () =
  let cache, log = make_cache () in
  write cache ~file:1 ~size:0 ~off:0 ~len:10;
  Bc.recall cache ~now:2.0 ~file:(f 1);
  (match log.writebacks with
  | [ (_, _, _, reason) ] ->
    Alcotest.(check bool) "recall reason" true (reason = Bc.Clean_recall)
  | _ -> Alcotest.fail "one writeback");
  Alcotest.(check int) "block stays" 1 (Bc.size cache);
  Alcotest.(check int) "clean" 0 (Bc.dirty_blocks cache)

let test_delete_discards_dirty () =
  let cache, log = make_cache () in
  write cache ~file:1 ~size:0 ~off:0 ~len:1000;
  Bc.delete cache ~now:1.0 ~file:(f 1);
  Alcotest.(check int) "nothing written back" 0 (List.length log.writebacks);
  Alcotest.(check int) "discarded bytes recorded" 1000
    (Bc.stats cache).dirty_bytes_discarded;
  Alcotest.(check int) "gone" 0 (Bc.size cache);
  Bc.tick cache ~now:60.0;
  Alcotest.(check int) "still nothing" 0 (List.length log.writebacks)

let test_invalidate_drops_clean_blocks () =
  let cache, _ = make_cache () in
  read cache ~file:1 ~size:bs ~off:0 ~len:bs;
  read cache ~file:2 ~size:bs ~off:0 ~len:bs;
  Bc.invalidate cache ~now:1.0 ~file:(f 1);
  Alcotest.(check int) "only file 2 left" 1 (Bc.size cache)

let test_flush_and_invalidate () =
  let cache, log = make_cache () in
  write cache ~file:1 ~size:0 ~off:0 ~len:100;
  Bc.flush_and_invalidate cache ~now:1.0 ~file:(f 1);
  Alcotest.(check int) "dirty data flushed" 1 (List.length log.writebacks);
  Alcotest.(check int) "blocks dropped" 0 (Bc.size cache)

(* -- capacity -------------------------------------------------------------------- *)

let test_lru_eviction_at_capacity () =
  let cache, _ = make_cache ~capacity:2 () in
  read ~now:1.0 cache ~file:1 ~size:bs ~off:0 ~len:bs;
  read ~now:2.0 cache ~file:2 ~size:bs ~off:0 ~len:bs;
  read ~now:3.0 cache ~file:3 ~size:bs ~off:0 ~len:bs;
  Alcotest.(check int) "bounded" 2 (Bc.size cache);
  (* file 1 was LRU: reading it again must miss *)
  let misses_before = (Bc.stats cache).all.read_misses in
  read ~now:4.0 cache ~file:1 ~size:bs ~off:0 ~len:bs;
  Alcotest.(check int) "file1 was evicted" (misses_before + 1)
    (Bc.stats cache).all.read_misses

let test_lru_touch_protects () =
  let cache, _ = make_cache ~capacity:2 () in
  read ~now:1.0 cache ~file:1 ~size:bs ~off:0 ~len:bs;
  read ~now:2.0 cache ~file:2 ~size:bs ~off:0 ~len:bs;
  (* touch file 1 so file 2 becomes the victim *)
  read ~now:3.0 cache ~file:1 ~size:bs ~off:0 ~len:bs;
  read ~now:4.0 cache ~file:3 ~size:bs ~off:0 ~len:bs;
  let misses_before = (Bc.stats cache).all.read_misses in
  read ~now:5.0 cache ~file:1 ~size:bs ~off:0 ~len:bs;
  Alcotest.(check int) "file1 survived" misses_before
    (Bc.stats cache).all.read_misses

let test_replacement_stats () =
  let cache, _ = make_cache ~capacity:2 () in
  read ~now:1.0 cache ~file:1 ~size:bs ~off:0 ~len:bs;
  read ~now:2.0 cache ~file:2 ~size:bs ~off:0 ~len:bs;
  read ~now:11.0 cache ~file:3 ~size:bs ~off:0 ~len:bs;
  let reps = (Bc.stats cache).replacements in
  let for_block = List.assoc Bc.Replace_for_block reps in
  Alcotest.(check int) "one for-block replacement" 1
    (Dfs_util.Stats.count for_block);
  (* age = now(11) - last_ref(1) *)
  Alcotest.(check (float 1e-6)) "age recorded" 10.0
    (Dfs_util.Stats.mean for_block)

let test_shrink_evicts_to_vm () =
  let cache, _ = make_cache ~capacity:4 () in
  for i = 1 to 4 do
    read ~now:(float_of_int i) cache ~file:i ~size:bs ~off:0 ~len:bs
  done;
  Bc.set_capacity cache ~now:10.0 2;
  Alcotest.(check int) "shrunk" 2 (Bc.size cache);
  let to_vm = List.assoc Bc.Replace_to_vm (Bc.stats cache).replacements in
  Alcotest.(check int) "two pages to VM" 2 (Dfs_util.Stats.count to_vm)

let test_shrink_flushes_dirty_to_vm () =
  let cache, log = make_cache ~capacity:2 () in
  write ~now:0.0 cache ~file:1 ~size:0 ~off:0 ~len:bs;
  read ~now:0.5 cache ~file:2 ~size:bs ~off:0 ~len:bs;
  (* two resident blocks; shrinking to one evicts the LRU (the dirty one),
     which must reach the server with the VM-page reason first *)
  Bc.set_capacity cache ~now:1.0 1;
  Alcotest.(check int) "one block left" 1 (Bc.size cache);
  (match log.writebacks with
  | [ (_, _, _, reason) ] ->
    Alcotest.(check bool) "vm reason" true (reason = Bc.Clean_vm)
  | [] -> Alcotest.fail "expected the dirty victim to be flushed"
  | _ -> Alcotest.fail "one writeback")

let test_capacity_floor () =
  let cache, _ = make_cache ~capacity:8 ~min_capacity:4 () in
  Bc.set_capacity cache ~now:0.0 1;
  Alcotest.(check int) "clamped to floor" 4 (Bc.capacity cache)

let test_resident_bytes () =
  let cache, _ = make_cache () in
  read cache ~file:1 ~size:(2 * bs) ~off:0 ~len:(2 * bs);
  Alcotest.(check int) "resident bytes" (2 * bs) (Bc.resident_bytes cache)

let test_drop_contents_empties () =
  let cache, _ = make_cache ~capacity:8 () in
  read cache ~file:1 ~size:(3 * bs) ~off:0 ~len:(3 * bs);
  write cache ~file:2 ~size:0 ~off:0 ~len:100;
  Bc.drop_contents cache;
  Bc.check_invariants cache;
  Alcotest.(check int) "no resident blocks" 0 (Bc.size cache);
  Alcotest.(check int) "no dirty blocks" 0 (Bc.dirty_blocks cache);
  Alcotest.(check int) "stats survive" 3 (Bc.stats cache).all.read_misses

(* -- invariants / properties ---------------------------------------------------- *)

let prop_random_ops_keep_invariants =
  QCheck.Test.make ~name:"random op sequences keep cache invariants" ~count:60
    QCheck.(
      list_of_size Gen.(0 -- 120)
        (quad (int_bound 5) (int_bound 6) (int_bound 3) (int_bound 9)))
    (fun ops ->
      let cache, _ = make_cache ~capacity:8 ~min_capacity:2 () in
      let now = ref 0.0 in
      List.iter
        (fun (file, op, blk, amount) ->
          now := !now +. 1.0;
          let file = file + 1 in
          let size = 4 * bs in
          match op with
          | 0 -> read ~now:!now cache ~file ~size ~off:(blk * bs) ~len:(amount * 100)
          | 1 ->
            write ~now:!now cache ~file ~size ~off:(blk * bs) ~len:(amount * 100)
          | 2 -> Bc.tick cache ~now:!now
          | 3 -> Bc.fsync cache ~now:!now ~file:(f file)
          | 4 -> Bc.delete cache ~now:!now ~file:(f file)
          | 5 -> Bc.set_capacity cache ~now:!now (2 + amount)
          | _ -> Bc.recall cache ~now:!now ~file:(f file))
        ops;
      Bc.check_invariants cache;
      true)

let prop_reads_conserve_bytes =
  QCheck.Test.make ~name:"hits + misses = read ops" ~count:100
    QCheck.(list_of_size Gen.(1 -- 60) (pair (int_bound 4) (int_bound 7)))
    (fun ops ->
      let cache, _ = make_cache ~capacity:16 () in
      List.iter
        (fun (file, blk) ->
          read cache ~file:(file + 1) ~size:(8 * bs) ~off:(blk * bs) ~len:bs)
        ops;
      let s = (Bc.stats cache).all in
      s.read_hits + s.read_misses = s.read_ops)

let prop_writeback_bounded_by_written =
  QCheck.Test.make
    ~name:"writebacks + discards <= bytes written (block slack allowed)"
    ~count:100
    QCheck.(list_of_size Gen.(1 -- 60) (pair (int_bound 3) (int_bound 9)))
    (fun ops ->
      let cache, _ = make_cache ~capacity:64 () in
      let now = ref 0.0 in
      List.iter
        (fun (file, amount) ->
          now := !now +. 10.0;
          write ~now:!now cache ~file:(file + 1) ~size:0 ~off:0
            ~len:((amount + 1) * 100);
          Bc.tick cache ~now:!now)
        ops;
      Bc.fsync cache ~now:(!now +. 100.0) ~file:(f 1);
      Bc.fsync cache ~now:(!now +. 100.0) ~file:(f 2);
      Bc.fsync cache ~now:(!now +. 100.0) ~file:(f 3);
      Bc.fsync cache ~now:(!now +. 100.0) ~file:(f 4);
      let s = Bc.stats cache in
      (* every written byte is flushed at most once per dirtying; extents
         can exceed the app bytes only through head-of-block inclusion *)
      s.writeback_bytes + s.dirty_bytes_discarded
      <= s.all.bytes_written + (Bc.size cache * bs))

(* -- model-based state-machine test ----------------------------------------------- *)

type io = { file : int; off : int; len : int; paging : bool; migrated : bool }

type op =
  | Read of io
  | Write of io
  | Fsync of int
  | Recall of int
  | Invalidate of int
  | Delete of int
  | Tick
  | Set_capacity of int

let show_op op =
  let io name { file; off; len; paging; migrated } =
    Printf.sprintf "%s f%d %d+%d%s%s" name file off len
      (if paging then " paging" else "")
      (if migrated then " migrated" else "")
  in
  match op with
  | Read a -> io "read" a
  | Write a -> io "write" a
  | Fsync f -> Printf.sprintf "fsync f%d" f
  | Recall f -> Printf.sprintf "recall f%d" f
  | Invalidate f -> Printf.sprintf "invalidate f%d" f
  | Delete f -> Printf.sprintf "delete f%d" f
  | Tick -> "tick"
  | Set_capacity n -> Printf.sprintf "set_capacity %d" n

(* The ops on [files] files: I/O of 1 byte to [span] blocks starting
   anywhere in a file's first [extent] blocks, and capacity changes to 1
   to [max_capacity] blocks. *)
let gen_op ~files ~extent ~span ~max_capacity =
  let open QCheck.Gen in
  let file = int_range 1 files in
  let io =
    map
      (fun (file, (off, len), (paging, migrated)) ->
        { file; off; len; paging; migrated })
      (triple file
         (pair (int_bound (extent * bs)) (int_range 1 (span * bs)))
         (pair (map (( = ) 0) (int_bound 4)) (map (( = ) 0) (int_bound 3))))
  in
  frequency
    [
      (6, map (fun a -> Read a) io);
      (6, map (fun a -> Write a) io);
      (1, map (fun f -> Fsync f) file);
      (1, map (fun f -> Recall f) file);
      (1, map (fun f -> Invalidate f) file);
      (1, map (fun f -> Delete f) file);
      (3, return Tick);
      (1, map (fun n -> Set_capacity n) (int_range 1 max_capacity));
    ]

(* Steps of up to 12 s let the 30 s delayed write fire. *)
let arb_ops gen_op =
  QCheck.make
    ~print:
      (QCheck.Print.list (fun (dt, op) -> Printf.sprintf "+%ds %s" dt (show_op op)))
    QCheck.Gen.(list_size (int_range 1 80) (pair (int_bound 12) gen_op))

(* The eviction victims of [f], from the cache's "evict" sim spans: file
   and idle time, oldest first.  [f] records into a stream of its own,
   the only one since sim recording was last (re)enabled. *)
let traced_victims f =
  let module P = Dfs_obs.Profiler in
  P.enable_sim ();
  P.recording (Option.get (P.stream ~label:"victims" ~now:(fun () -> 0.0))) f;
  List.concat_map
    (fun (_, spans) ->
      List.filter_map
        (fun (s : P.span) ->
          match (s.name, List.assoc_opt "file" s.args, List.assoc_opt "idle_s" s.args) with
          | "evict", Some (Dfs_obs.Json.Int f), Some (Dfs_obs.Json.Float idle) -> Some (f, idle)
          | _ -> None)
        (List.of_seq spans))
    (P.simulations ())

(* Each operation runs on the cache and on the model; after it the
   fetches, the victims and the writebacks must match in order, and the
   statistics exactly.  The model writes a file's blocks back in the
   order of the per-file hash table the cache kept before, and visits
   files in [tick] in its [dirty_files] order (cache_model.ml), so the
   writebacks are compared as a sequence. *)
let matches_model ~name ~count ~capacity ~min_capacity gen_op =
  QCheck.Test.make ~name ~count ~long_factor:20 (arb_ops gen_op)
    (fun ops ->
      let cache, log = make_cache ~capacity ~min_capacity ~delay:30.0 () in
      let m = Cache_model.create ~bs ~delay:30.0 ~capacity ~min_capacity in
      let sizes = Array.make 5 0 and clock = ref 0.0 in
      let cls_of { paging; _ } =
        if paging then Bc.Class_paging else Bc.Class_file
      in
      let step (dt, op) =
        clock := !clock +. float_of_int dt;
        let now = !clock in
        log.fetches <- [];
        log.writebacks <- [];
        m.fetches <- [];
        m.victims <- [];
        m.writebacks <- [];
        let victims =
          traced_victims (fun () ->
            match op with
            | Read ({ file; off; len; paging; migrated } as a) ->
              let file_size = sizes.(file) in
              Bc.read cache ~now ~cls:(cls_of a) ~migrated ~file:(f file)
                ~file_size ~off ~len;
              Cache_model.read m ~now ~paging ~migrated ~file ~file_size ~off ~len
            | Write ({ file; off; len; paging; migrated } as a) ->
              let file_size = sizes.(file) in
              Bc.write cache ~now ~cls:(cls_of a) ~migrated ~file:(f file)
                ~file_size ~off ~len;
              Cache_model.write m ~now ~paging ~migrated ~file ~file_size ~off ~len;
              sizes.(file) <- max file_size (off + len)
            | Fsync file ->
              Bc.fsync cache ~now ~file:(f file);
              Cache_model.clean_file m ~file Bc.Clean_fsync
            | Recall file ->
              Bc.recall cache ~now ~file:(f file);
              Cache_model.clean_file m ~file Bc.Clean_recall
            | Invalidate file ->
              Bc.invalidate cache ~now ~file:(f file);
              Cache_model.invalidate m ~file
            | Delete file ->
              Bc.delete cache ~now ~file:(f file);
              Cache_model.invalidate m ~file;
              sizes.(file) <- 0
            | Tick ->
              Bc.tick cache ~now;
              Cache_model.tick m ~now
            | Set_capacity n ->
              Bc.set_capacity cache ~now n;
              Cache_model.set_capacity m ~now n)
        in
        Bc.check_invariants cache;
        let st = Bc.stats cache in
        log.fetches = m.fetches
        && victims = List.rev m.victims
        && log.writebacks = m.writebacks
        && [ st.all; st.file; st.paging; st.migrated ] = Array.to_list m.stats
        && st.writeback_bytes = m.writeback_bytes
        && st.dirty_bytes_discarded = m.discarded
        && Bc.size cache = Cache_model.size m
        && Bc.dirty_blocks cache = Cache_model.dirty_blocks m
        && Bc.capacity cache = m.capacity
      in
      Fun.protect ~finally:Dfs_obs.Profiler.disable_sim (fun () -> List.for_all step ops))

(* Four files on a cache of 6 blocks (floor 2) that evicts often. *)
let prop_matches_model =
  matches_model ~name:"matches reference model" ~count:300 ~capacity:6
    ~min_capacity:2
    (gen_op ~files:4 ~extent:6 ~span:3 ~max_capacity:10)

(* Three files on a cache of 320 blocks (floor 8), with I/O of up to 64
   blocks: a file's table passes 32, 64 and 128 blocks and doubles its
   buckets each time, capacity cuts and invalidations shrink and empty
   it, and its next block starts a table of 16 buckets again. *)
let prop_matches_model_large =
  matches_model ~name:"matches reference model, large files" ~count:40
    ~capacity:320 ~min_capacity:8
    (gen_op ~files:3 ~extent:192 ~span:64 ~max_capacity:400)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_random_ops_keep_invariants;
      prop_reads_conserve_bytes;
      prop_writeback_bounded_by_written;
      prop_matches_model;
      prop_matches_model_large;
    ]

let suite =
  [
    ("cold read fetches", `Quick, test_cold_read_fetches);
    ("warm read hits", `Quick, test_warm_read_hits);
    ("read spanning blocks", `Quick, test_read_spanning_blocks);
    ("partial tail fetch", `Quick, test_read_partial_tail_fetch);
    ("read offset within block", `Quick, test_read_offset_within_block);
    ("migrated class accounting", `Quick, test_migrated_class_accounting);
    ("paging class accounting", `Quick, test_paging_class_accounting);
    ("write dirties", `Quick, test_write_dirties);
    ("append needs no write fetch", `Quick, test_append_no_write_fetch);
    ("partial write non-resident fetches", `Quick, test_partial_write_nonresident_fetches);
    ("partial write resident no fetch", `Quick, test_partial_write_resident_no_fetch);
    ("full-block overwrite no fetch", `Quick, test_full_block_overwrite_no_fetch);
    ("delayed writeback after 30s", `Quick, test_delayed_writeback_after_30s);
    ("delayed write flushes whole file", `Quick, test_delayed_write_flushes_whole_file);
    ("writeback extent on append", `Quick, test_writeback_extent_append);
    ("fsync reason", `Quick, test_fsync_reason);
    ("recall reason and residency", `Quick, test_recall_reason_and_residency);
    ("delete discards dirty", `Quick, test_delete_discards_dirty);
    ("invalidate drops clean blocks", `Quick, test_invalidate_drops_clean_blocks);
    ("flush_and_invalidate", `Quick, test_flush_and_invalidate);
    ("lru eviction at capacity", `Quick, test_lru_eviction_at_capacity);
    ("lru touch protects", `Quick, test_lru_touch_protects);
    ("replacement stats", `Quick, test_replacement_stats);
    ("shrink evicts to VM", `Quick, test_shrink_evicts_to_vm);
    ("shrink flushes dirty to VM", `Quick, test_shrink_flushes_dirty_to_vm);
    ("capacity floor", `Quick, test_capacity_floor);
    ("resident bytes", `Quick, test_resident_bytes);
    ("drop_contents empties the cache", `Quick, test_drop_contents_empties);
  ]
  @ qcheck_tests
