(* Tests for Dfs_trace: ids, records, codec, writer/reader, merge,
   columnar segments, and the reader's checks on hostile input. *)

open Dfs_trace

let mk ?(time = 0.0) ?(server = 0) ?(client = 0) ?(user = 0) ?(pid = 0)
    ?(migrated = false) ?(file = 0) kind =
  {
    Record.time;
    server = Ids.Server.of_int server;
    client = Ids.Client.of_int client;
    user = Ids.User.of_int user;
    pid = Ids.Process.of_int pid;
    migrated;
    file = Ids.File.of_int file;
    kind;
  }

let sample_kinds =
  [
    Record.Open
      { mode = Record.Read_only; created = false; is_dir = false; size = 123; start_pos = 0 };
    Record.Open
      { mode = Record.Write_only; created = true; is_dir = false; size = 0; start_pos = 0 };
    Record.Open
      { mode = Record.Read_write; created = false; is_dir = true; size = 640; start_pos = 64 };
    Record.Close { size = 1000; final_pos = 1000; bytes_read = 500; bytes_written = 500 };
    Record.Reposition { pos_before = 10; pos_after = 999 };
    Record.Delete { size = 42; is_dir = false };
    Record.Delete { size = 0; is_dir = true };
    Record.Truncate { old_size = 4096 };
    Record.Dir_read { bytes = 320 };
    Record.Shared_read { offset = 4096; length = 256 };
    Record.Shared_write { offset = 0; length = 64 };
  ]

(* -- ids -------------------------------------------------------------------- *)

let test_ids_roundtrip () =
  let u = Ids.User.of_int 7 in
  Alcotest.(check int) "roundtrip" 7 (Ids.User.to_int u);
  Alcotest.(check bool) "equal" true (Ids.User.equal u (Ids.User.of_int 7));
  Alcotest.(check bool) "not equal" false (Ids.User.equal u (Ids.User.of_int 8))

let test_ids_collections () =
  let s = Ids.File.Set.of_list (List.map Ids.File.of_int [ 1; 2; 2; 3 ]) in
  Alcotest.(check int) "set dedups" 3 (Ids.File.Set.cardinal s);
  let tbl = Ids.Client.Tbl.create 4 in
  Ids.Client.Tbl.replace tbl (Ids.Client.of_int 5) "x";
  Alcotest.(check (option string)) "tbl find" (Some "x")
    (Ids.Client.Tbl.find_opt tbl (Ids.Client.of_int 5))

(* -- record ----------------------------------------------------------------- *)

let test_record_compare_time () =
  let a = mk ~time:1.0 (Record.Dir_read { bytes = 1 }) in
  let b = mk ~time:2.0 (Record.Dir_read { bytes = 1 }) in
  Alcotest.(check bool) "a before b" true (Record.compare_time a b < 0);
  let c = mk ~time:1.0 ~server:1 (Record.Dir_read { bytes = 1 }) in
  Alcotest.(check bool) "tie broken by server" true (Record.compare_time a c < 0)

let test_record_kind_names () =
  let names = List.map Record.kind_name sample_kinds in
  Alcotest.(check int) "all named" (List.length sample_kinds)
    (List.length (List.filter (fun n -> String.length n > 0) names))

(* -- codec ------------------------------------------------------------------ *)

let test_codec_roundtrip_all_kinds () =
  List.iteri
    (fun i kind ->
      let r =
        mk ~time:(float_of_int i *. 1.5) ~server:(i mod 4) ~client:i ~user:(i * 2)
          ~pid:(i * 3) ~migrated:(i mod 2 = 0) ~file:(i * 10) kind
      in
      match Codec.decode (Codec.encode r) with
      | Ok r' -> Alcotest.(check bool) "roundtrip" true (Record.equal r r')
      | Error e -> Alcotest.failf "decode failed: %s" e)
    sample_kinds

let test_codec_bad_input () =
  let bad l =
    match Codec.decode l with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "empty" true (bad "");
  Alcotest.(check bool) "garbage" true (bad "hello world");
  Alcotest.(check bool) "bad kind" true
    (bad "1.0\t0\t0\t0\t0\t0\t0\tnope\t1\t2");
  Alcotest.(check bool) "bad int" true
    (bad "1.0\t0\t0\t0\t0\t0\t0\tdirread\txyz");
  Alcotest.(check bool) "wrong field count" true
    (bad "1.0\t0\t0\t0\t0\t0\t0\tseek\t5")

(* -- writer / reader ----------------------------------------------------------- *)

let records_for_io =
  List.mapi (fun i kind -> mk ~time:(float_of_int i) ~file:i kind) sample_kinds

let records_of_batch b = Array.to_list (Record_batch.to_array b)

let test_writer_reader_buffer () =
  let buf = Buffer.create 256 in
  let w = Writer.to_buffer buf in
  List.iter (Writer.write w) records_for_io;
  Alcotest.(check int) "count" (List.length records_for_io) (Writer.count w);
  match Reader.batch_of_string (Buffer.contents buf) with
  | Ok b ->
    let rs = records_of_batch b in
    Alcotest.(check int) "all read back" (List.length records_for_io)
      (List.length rs);
    List.iter2
      (fun a b -> Alcotest.(check bool) "record equal" true (Record.equal a b))
      records_for_io rs
  | Error e -> Alcotest.failf "reader failed: %s" e

let test_reader_rejects_bad_header () =
  match Reader.batch_of_string "#not-a-trace\n" with
  | Ok _ -> Alcotest.fail "accepted bad header"
  | Error e ->
    Alcotest.(check bool) "mentions header" true
      (String.length e > 0)

let test_reader_reports_line () =
  let buf = Buffer.create 64 in
  let w = Writer.to_buffer buf in
  Writer.write w (List.hd records_for_io);
  Buffer.add_string buf "garbage line\n";
  match Reader.batch_of_string (Buffer.contents buf) with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error e ->
    Alcotest.(check bool) "line number present" true
      (String.length e >= 6 && String.sub e 0 4 = "line")

let test_file_roundtrip () =
  let path = Filename.temp_file "dfs" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Writer.with_file path (fun w -> List.iter (Writer.write w) records_for_io);
      match Reader.batch_of_file path with
      | Ok b ->
        Alcotest.(check int) "file roundtrip" (List.length records_for_io)
          (Record_batch.length b)
      | Error e -> Alcotest.failf "read back failed: %s" e)

(* -- merge ----------------------------------------------------------------------- *)

(* Rebuild [records] as a chunk stream with the given chunk size, so the
   merge cursors have to cross chunk boundaries mid-stream. *)
let chunks_of ?chunk_records ?spill records =
  let sink = Sink.create ?chunk_records ?spill () in
  List.iter (Sink.emit sink) records;
  Sink.close sink

(* A chunk stream boxed into a list, to compare against the list model. *)
let records chunks = Array.to_list (Record_batch.to_array (Sink.to_batch chunks))

let merge_lists ?scrub sources =
  records (Merge.merge_chunks ?scrub (List.map chunks_of sources))

let test_merge_two_streams () =
  let s0 = [ mk ~time:1.0 ~server:0 (Record.Dir_read { bytes = 1 });
             mk ~time:3.0 ~server:0 (Record.Dir_read { bytes = 1 }) ] in
  let s1 = [ mk ~time:2.0 ~server:1 (Record.Dir_read { bytes = 1 });
             mk ~time:4.0 ~server:1 (Record.Dir_read { bytes = 1 }) ] in
  let merged = merge_lists [ s0; s1 ] in
  Alcotest.(check (list (float 0.0))) "interleaved"
    [ 1.0; 2.0; 3.0; 4.0 ]
    (List.map (fun (r : Record.t) -> r.time) merged);
  Alcotest.(check bool) "sorted" true (Merge_model.is_sorted merged)

let test_merge_tie_break () =
  let a = mk ~time:1.0 ~server:1 (Record.Dir_read { bytes = 1 }) in
  let b = mk ~time:1.0 ~server:0 (Record.Dir_read { bytes = 2 }) in
  let merged = merge_lists [ [ a ]; [ b ] ] in
  (* server 0 first on equal timestamps *)
  match merged with
  | [ first; second ] ->
    Alcotest.(check int) "server 0 first" 0 (Ids.Server.to_int first.server);
    Alcotest.(check int) "server 1 second" 1 (Ids.Server.to_int second.server)
  | _ -> Alcotest.fail "wrong length"

let test_merge_empty_streams () =
  Alcotest.(check int) "no streams" 0 (List.length (merge_lists []));
  Alcotest.(check int) "empty streams" 0 (List.length (merge_lists [ []; [] ]))

let test_scrub () =
  let daemon = 9000 in
  let records =
    [
      mk ~time:1.0 ~user:1 (Record.Dir_read { bytes = 1 });
      mk ~time:2.0 ~user:daemon (Record.Dir_read { bytes = 1 });
      mk ~time:3.0 ~user:2 (Record.Dir_read { bytes = 1 });
    ]
  in
  let scrubbed =
    merge_lists
      ~scrub:(Ids.User.Set.singleton (Ids.User.of_int daemon))
      [ records ]
  in
  Alcotest.(check int) "daemon removed" 2 (List.length scrubbed);
  Alcotest.(check bool) "others kept" true
    (List.for_all
       (fun (r : Record.t) -> Ids.User.to_int r.user <> daemon)
       scrubbed)

(* -- streaming merge over chunks, against the list model ------------------------ *)

let check_same_records msg expected actual =
  Alcotest.(check int) (msg ^ ": length") (List.length expected)
    (List.length actual);
  List.iteri
    (fun i (e, a) ->
      if not (Record.equal e a) then
        Alcotest.failf "%s: record %d differs" msg i)
    (List.combine expected actual)

let test_merge_chunks_empty () =
  Alcotest.(check int) "no sources" 0 (Sink.length (Merge.merge_chunks []));
  Alcotest.(check int) "empty sources" 0
    (Sink.length (Merge.merge_chunks [ chunks_of []; chunks_of [] ]));
  (* one empty source among non-empty ones must not derail the merge *)
  let live = [ mk ~time:1.0 (Record.Dir_read { bytes = 1 }) ] in
  check_same_records "empty among live" live
    (records (Merge.merge_chunks [ chunks_of []; chunks_of live ]))

let merge_both_ways ~chunk_records sources =
  let expected = Merge_model.merge sources in
  let streamed =
    Merge.merge_chunks ~chunk_records
      (List.map (chunks_of ~chunk_records) sources)
  in
  (expected, records streamed)

let interleaved_source server =
  List.init 10 (fun i ->
      mk ~time:(float_of_int ((i * 2) + server)) ~server
        (Record.Dir_read { bytes = i }))

let test_merge_chunks_boundary_straddling () =
  (* chunk size 3 against 10-record sources: cursor advancement crosses a
     chunk boundary inside every source and inside the output sink. *)
  let sources = List.map interleaved_source [ 0; 1; 2 ] in
  let expected, streamed = merge_both_ways ~chunk_records:3 sources in
  check_same_records "chunk_records=3" expected streamed

let test_merge_chunks_single_record_chunks () =
  (* chunk_records = 1: every record is its own chunk — the degenerate
     case where every advance loads a fresh chunk. *)
  let sources = List.map interleaved_source [ 0; 1 ] in
  let expected, streamed = merge_both_ways ~chunk_records:1 sources in
  check_same_records "chunk_records=1" expected streamed

let test_merge_chunks_scrub () =
  let daemon = 9000 in
  let src server =
    [
      mk ~time:(float_of_int server) ~server ~user:1
        (Record.Dir_read { bytes = 1 });
      mk ~time:(float_of_int (server + 10)) ~server ~user:daemon
        (Record.Dir_read { bytes = 2 });
    ]
  in
  let sources = [ src 0; src 1 ] in
  let self_users = Ids.User.Set.singleton (Ids.User.of_int daemon) in
  let expected = Merge_model.scrub ~self_users (Merge_model.merge sources) in
  let streamed =
    Merge.merge_chunks ~chunk_records:2 ~scrub:self_users
      (List.map (chunks_of ~chunk_records:2) sources)
  in
  check_same_records "scrub while streaming" expected (records streamed)

let temp_spill_dir () =
  (* temp_file gives us a unique path; the sink creates the directory. *)
  let f = Filename.temp_file "dfs-test-spill" "" in
  Sys.remove f;
  f

let test_merge_chunks_spill_roundtrip () =
  let dir = temp_spill_dir () in
  let sources = List.map interleaved_source [ 0; 1 ] in
  let chunked =
    List.mapi
      (fun i s ->
        chunks_of ~chunk_records:4
          ~spill:{ Sink.dir; name = Printf.sprintf "src%d" i }
          s)
      sources
  in
  List.iter
    (fun c ->
      Alcotest.(check bool) "source spilled" true (Sink.spilled_count c > 0))
    chunked;
  let merged =
    Merge.merge_chunks ~chunk_records:4
      ~spill:{ Sink.dir; name = "merged" }
      chunked
  in
  Alcotest.(check bool) "output spilled" true (Sink.spilled_count merged > 0);
  let expected = Merge_model.merge sources in
  check_same_records "spill roundtrip" expected (records merged);
  (* replayable: a second traversal re-reads the on-disk segments *)
  check_same_records "second traversal" expected (records merged);
  List.iter Sink.discard chunked;
  Sink.discard merged;
  Alcotest.(check (list string)) "segments deleted" []
    (Array.to_list (Sys.readdir dir));
  Sys.rmdir dir

(* -- columnar writer ----------------------------------------------------------- *)

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let encode_trace ~format records =
  let buf = Buffer.create 4096 in
  let w = Writer.to_buffer ~format buf in
  List.iter (Writer.write w) records;
  Writer.flush w;
  Buffer.contents buf

let decode_trace s =
  match Reader.batch_of_string s with
  | Ok b -> records_of_batch b
  | Error e -> Alcotest.failf "decode failed: %s" e

(* -- columnar segments --------------------------------------------------------- *)

let with_mmap enabled f =
  let prev = Sys.getenv_opt "DFS_MMAP" in
  Unix.putenv "DFS_MMAP" (if enabled then "1" else "0");
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "DFS_MMAP" (Option.value ~default:"" prev))
    f

let write_segment_file batch =
  let path = Filename.temp_file "dfs" ".dfsc" in
  let oc = open_out_bin path in
  ignore (Segment.write_batch oc batch);
  close_out oc;
  path

let test_segment_writer_roundtrip () =
  (* the columnar writer format: exact on any float time (raw IEEE-754
     bits) *)
  let s = encode_trace ~format:Writer.Columnar records_for_io in
  Alcotest.(check bool) "sniffs as a segment file" true (Segment.is_segment s);
  let back = decode_trace s in
  Alcotest.(check int) "count" (List.length records_for_io) (List.length back);
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "record equal (incl. exact time)" true
        (Record.equal a b))
    records_for_io back;
  (* an empty columnar file is still a well-formed (empty) segment file *)
  let empty = encode_trace ~format:Writer.Columnar [] in
  Alcotest.(check bool) "empty file sniffs as segment" true
    (Segment.is_segment empty);
  Alcotest.(check int) "empty file decodes to zero records" 0
    (List.length (decode_trace empty))

let test_segment_mmap_roundtrip_presets () =
  (* Round-trip the merged trace of all eight presets through an on-disk
     segment file, once through the mmap path and once through the
     portable copy path; both must agree with the source bit-for-bit. *)
  List.iter
    (fun n ->
      let p =
        Dfs_workload.Presets.scaled (Dfs_workload.Presets.trace n) ~factor:0.002
      in
      let cluster, _ = Dfs_workload.Presets.run p in
      let expected = Sink.to_batch (Dfs_sim.Cluster.merged_chunks cluster) in
      let path = write_segment_file expected in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let read label =
            match Segment.batch_of_file path with
            | Ok b -> b
            | Error e -> Alcotest.failf "trace%d %s: %s" n label e
          in
          let mapped = with_mmap true (fun () -> read "mmap") in
          let copied = with_mmap false (fun () -> read "copy") in
          Alcotest.(check bool)
            (Printf.sprintf "trace%d: mmap read exact" n)
            true
            (Record_batch.equal expected mapped);
          Alcotest.(check bool)
            (Printf.sprintf "trace%d: copy read exact" n)
            true
            (Record_batch.equal expected copied)))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let segment_read_both_paths s =
  (* exercise the string (copy) decoder and the file reader on both
     paths; all three must agree on acceptance *)
  let path = Filename.temp_file "dfs" ".dfsc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc s;
      close_out oc;
      let of_str = Segment.batch_of_string s in
      let mapped = with_mmap true (fun () -> Segment.batch_of_file path) in
      let copied = with_mmap false (fun () -> Segment.batch_of_file path) in
      (of_str, mapped, copied))

let check_segment_rejected ~what ~needle s =
  let of_str, mapped, copied = segment_read_both_paths s in
  List.iter
    (fun (label, r) ->
      match r with
      | Ok _ -> Alcotest.failf "%s: %s accepted" what label
      | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s mentions %S" what label needle)
          true
          (contains_sub ~sub:needle e))
    [ ("of_string", of_str); ("mmap", mapped); ("copy", copied) ]

let test_segment_rejects_truncation () =
  let s = Segment.encode_batch (Record_batch.of_list records_for_io) in
  (* a cut inside the header and a cut inside the columns *)
  check_segment_rejected ~what:"header cut" ~needle:"truncated"
    (String.sub s 0 (Segment.header_bytes - 1));
  check_segment_rejected ~what:"column cut" ~needle:"truncated"
    (String.sub s 0 (String.length s - 1))

(* Recompute the checksums of a one-segment image holding [n] records
   after a test pokes it, so the structural, tag and domain checks —
   which the CRCs otherwise pre-empt — are what must catch the damage.
   Column extents and checksum slots follow the layout in segment.mli. *)
let reseal ~n s =
  let b = Bytes.of_string s in
  let hb = Segment.header_bytes in
  let extent k =
    if k = 0 then (hb, 8 * n)
    else if k <= 9 then (hb + (8 * n) + (4 * n * (k - 1)), 4 * n)
    else (hb + (44 * n), n)
  in
  let crc ~pos ~len =
    Int32.of_int (Dfs_util.Crc32c.string_sub (Bytes.to_string b) ~pos ~len)
  in
  for k = 0 to 10 do
    let pos, len = extent k in
    Bytes.set_int32_le b (28 + (4 * k)) (crc ~pos ~len)
  done;
  Bytes.set_int32_le b 24 0l;
  Bytes.set_int32_le b 24 (crc ~pos:0 ~len:hb);
  Bytes.to_string b

let test_segment_rejects_misalignment () =
  (* A poked header field trips the header checksum before the
     structural checks even run... *)
  let n = List.length records_for_io in
  let s = Segment.encode_batch (Record_batch.of_list records_for_io) in
  let bad = Bytes.of_string s in
  Bytes.set_int64_le bad 16 (Int64.of_int (String.length s - 3));
  check_segment_rejected ~what:"bad length" ~needle:"header checksum"
    (Bytes.to_string bad);
  let bad = Bytes.of_string s in
  Bytes.set_int64_le bad 8 (-1L);
  check_segment_rejected ~what:"negative count" ~needle:"header checksum"
    (Bytes.to_string bad);
  (* ...so reseal the same pokes: the extent/alignment checks must still
     catch them. *)
  let bad = Bytes.of_string s in
  Bytes.set_int64_le bad 16 (Int64.of_int (String.length s - 3));
  check_segment_rejected ~what:"bad length, resealed" ~needle:"misaligned"
    (reseal ~n (Bytes.to_string bad));
  let bad = Bytes.of_string s in
  Bytes.set_int64_le bad 8 (-1L);
  check_segment_rejected ~what:"negative count, resealed"
    ~needle:"record count"
    (reseal ~n (Bytes.to_string bad))

let test_segment_rejects_malformed_tag () =
  let records = records_for_io in
  let n = List.length records in
  (* tags column starts at header + 44n; 0xFF sets flag bits no kind
     allows.  The column checksum catches the flip first; resealed, the
     per-record tag check must. *)
  let s = Segment.encode_batch (Record_batch.of_list records) in
  let bad = Bytes.of_string s in
  Bytes.set bad (Segment.header_bytes + (44 * n)) '\xFF';
  check_segment_rejected ~what:"bad tag" ~needle:"column tags"
    (Bytes.to_string bad);
  check_segment_rejected ~what:"bad tag, resealed" ~needle:"malformed tag"
    (reseal ~n (Bytes.to_string bad))

(* -- hostile records ---------------------------------------------------------- *)

let read_both policy ~what s =
  (* the in-memory and the file reader must agree *)
  let path = Filename.temp_file "dfs" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc s);
      [
        (what ^ " (string)", Reader.batch_of_string ~on_corruption:policy s);
        (what ^ " (file)", Reader.batch_of_file ~on_corruption:policy path);
      ])

(* Under Fail the reader returns [needle]'s one-line error, never an
   exception; under Salvage it keeps [kept] records and counts the
   incident once per read. *)
let check_hostile ~what ~needle ~kept s =
  List.iter
    (fun (label, r) ->
      match r with
      | Ok _ -> Alcotest.failf "%s: accepted" label
      | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S mentions %S" label e needle)
          true (contains_sub ~sub:needle e);
        Alcotest.(check bool) (label ^ ": one line") false
          (String.contains e '\n'))
    (read_both Corruption.Fail ~what s);
  let before = Corruption.detected () in
  List.iter
    (fun (label, r) ->
      match r with
      | Ok b ->
        Alcotest.(check int) (label ^ ": salvaged records") kept
          (Record_batch.length b);
        List.iter
          (fun r ->
            Alcotest.(check bool) (label ^ ": salvaged record valid") true
              (Result.is_ok (Record.validate r)))
          (records_of_batch b)
      | Error e -> Alcotest.failf "%s: salvage failed: %s" label e)
    (read_both Corruption.Salvage ~what s);
  Alcotest.(check int) (what ^ ": incidents counted") (before + 2)
    (Corruption.detected ())

(* A text trace whose second record names client -3. *)
let text_negative_client =
  String.concat "\n"
    [
      Codec.header;
      Codec.encode (List.hd records_for_io);
      "1.000000\t0\t-3\t0\t0\t0\t1\tdirread\t5";
      Codec.encode (List.nth records_for_io 2);
    ]
  ^ "\n"

let test_reader_rejects_negative_text_id () =
  (* text salvage keeps the whole lines before the bad one *)
  check_hostile ~what:"text client -3" ~needle:"line 3: negative client id -3"
    ~kept:1 text_negative_client

(* [records_for_io] as one segment with a record poked out of domain and
   the checksums recomputed: record 4's client id (column 2) or file id
   (column 5), or record 7's time.  Returns (what, error, image). *)
let hostile_columnar () =
  let n = List.length records_for_io in
  let hb = Segment.header_bytes in
  let poke f =
    let b =
      Bytes.of_string (Segment.encode_batch (Record_batch.of_list records_for_io))
    in
    f b;
    reseal ~n (Bytes.to_string b)
  in
  [
    ( "columnar client -3",
      "record 4: negative client id -3",
      poke (fun b -> Bytes.set_int32_le b (hb + (12 * n) + 16) (-3l)) );
    ( "columnar file -3",
      "record 4: negative file id -3",
      poke (fun b -> Bytes.set_int32_le b (hb + (24 * n) + 16) (-3l)) );
    ( "columnar nan time",
      "record 7: non-finite time",
      poke (fun b ->
          Bytes.set_int64_le b (hb + 56) (Int64.bits_of_float Float.nan)) );
  ]

let test_reader_validates_columnar_records () =
  (* salvage drops just the poked record *)
  List.iter
    (fun (what, needle, s) ->
      check_hostile ~what ~needle ~kept:(List.length records_for_io - 1) s)
    (hostile_columnar ())

(* -- retired formats and the CLI ------------------------------------------------ *)

(* Files in the retired formats: the varint binary codec (its magic,
   then 220 all-zero dir-read records of 8 bytes each) and a v1 segment
   (64-byte header, no checksums, the v2 columns). *)
let retired_binary =
  "\xD7DFSB\x01"
  ^ String.concat ""
      (List.init 220 (fun _ -> "\x05\x00\x00\x00\x00\x00\x00\x00"))

let retired_v1_segment () =
  let n = List.length records_for_io in
  let v2 = Segment.encode_batch (Record_batch.of_list records_for_io) in
  let len = (64 + (45 * n) + 7) land lnot 7 in
  let b = Bytes.make len '\000' in
  Bytes.blit_string "\xD7DFSC\x01\x00\x00" 0 b 0 8;
  Bytes.set_int64_le b 8 (Int64.of_int n);
  Bytes.set_int64_le b 16 (Int64.of_int len);
  Bytes.blit_string v2 Segment.header_bytes b 64 (45 * n);
  Bytes.to_string b

(* The dfs_repro executable (a test dependency, see test/dune). *)
let dfs_repro =
  Filename.concat (Filename.concat Filename.parent_dir_name "bin") "dfs_repro.exe"

(* Run the CLI; returns its exit code, stdout and stderr. *)
let run_cli args =
  let out = Filename.temp_file "dfs-cli" ".out" in
  let err = Filename.temp_file "dfs-cli" ".err" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove out;
      Sys.remove err)
    (fun () ->
      let out_fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
      let err_fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
      let pid =
        Unix.create_process dfs_repro
          (Array.of_list (dfs_repro :: args))
          Unix.stdin out_fd err_fd
      in
      Unix.close out_fd;
      Unix.close err_fd;
      let code =
        match snd (Unix.waitpid [] pid) with
        | Unix.WEXITED c -> c
        | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
      in
      let read path = In_channel.with_open_bin path In_channel.input_all in
      (code, read out, read err))

(* Exactly one stderr line, free of [words]: the shape of every refusal. *)
let check_one_line label err words =
  Alcotest.(check bool)
    (Printf.sprintf "%s: one stderr line in %S" label err)
    true
    (String.length err > 1 && String.index err '\n' = String.length err - 1);
  List.iter
    (fun word ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: no %S" label word)
        false
        (contains_sub ~sub:word (String.lowercase_ascii err)))
    words

(* Every hostile trace, through [replay] and [analyze]: exit 2 and one
   short stderr line, never an uncaught exception (exit 125). *)
let test_cli_hostile_traces () =
  if not (Sys.file_exists dfs_repro) then
    Alcotest.failf "%s not built" dfs_repro;
  let inputs =
    (("text client -3", text_negative_client)
     :: List.map (fun (what, _, s) -> (what, s)) (hostile_columnar ()))
    @ [
      ("retired binary", retired_binary);
      ("retired v1 segment", retired_v1_segment ());
    ]
  in
  List.iter
    (fun (what, bytes) ->
      let path = Filename.temp_file "dfs" ".in" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
          List.iter
            (fun cmd ->
              let label = Printf.sprintf "%s: %s" cmd what in
              let code, _, err = run_cli [ cmd; path ] in
              Alcotest.(check int) (label ^ ": exit 2") 2 code;
              check_one_line label err [ "exception"; "backtrace"; "assert" ];
              Alcotest.(check bool)
                (Printf.sprintf "%s: %d-byte line" label (String.length err))
                true
                (String.length err < 200))
            [ "replay"; "analyze" ]))
    inputs

(* A path the CLI cannot open, read or write — missing, a directory, a
   file where a directory belongs: exit 2 and one short stderr line,
   never an uncaught Sys_error (exit 125). *)
let test_cli_unusable_paths () =
  if not (Sys.file_exists dfs_repro) then
    Alcotest.failf "%s not built" dfs_repro;
  let dir = Filename.temp_dir "dfs-cli" "" in
  let file name = Filename.concat dir name in
  let trace = file "ok.trace" and csv = file "ok.csv" in
  let missing = file "missing" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (file f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      Writer.with_file trace (fun w -> List.iter (Writer.write w) records_for_io);
      Out_channel.with_open_bin csv (fun oc ->
          output_string oc
            "Timestamp,Hostname,DiskNumber,Type,Offset,Size\n\
             1,h,0,Read,0,4096\n");
      List.iter
        (fun args ->
          let label = String.concat " " args in
          let code, _, err = run_cli args in
          Alcotest.(check int) (label ^ ": exit 2") 2 code;
          check_one_line label err [ "exception" ])
        [
          [ "replay"; missing ];
          [ "all"; "--replay"; missing ];
          [ "replay"; dir ];
          [ "all"; "--replay"; dir ];
          [ "replay"; trace; "-o"; Filename.concat missing "x.trace" ];
          [ "import"; csv; "-o"; Filename.concat missing "x.trace" ];
          [ "simulate"; "--scale"; "0.001"; "--out"; trace ];
        ])

(* Every out-of-range numeric flag: exit 1 and one stderr line naming the
   flag, refused before any simulation starts. *)
let test_cli_bad_numeric_flags () =
  if not (Sys.file_exists dfs_repro) then
    Alcotest.failf "%s not built" dfs_repro;
  List.iter
    (fun (flag, args) ->
      let label = String.concat " " args in
      let code, _, err = run_cli args in
      Alcotest.(check int) (label ^ ": exit 1") 1 code;
      check_one_line label err [ "exception"; "assert" ];
      Alcotest.(check bool)
        (Printf.sprintf "%s: names %s in %S" label flag err)
        true (contains_sub ~sub:flag err))
    [
      ("--trace", [ "stats"; "--trace"; "9" ]);
      ("--trace", [ "simulate"; "--trace"; "0" ]);
      ("--traces", [ "all"; "--traces"; "0" ]);
      ("--traces", [ "facts"; "--traces"; "1,9" ]);
      ("--scale", [ "experiment"; "table1"; "--scale"; "0" ]);
      ("--scale", [ "experiment"; "table1"; "--scale"; "2" ]);
      ("--scale", [ "ablate"; "--scale"; "nan" ]);
      ("--chunk-records", [ "all"; "--chunk-records"; "0" ]);
      ("--clients", [ "scale"; "--clients"; "0" ]);
      ("--servers", [ "scale"; "--servers"; "0" ]);
      ("--partitions", [ "scale"; "--partitions"; "9" ]);
      ("--traces", [ "all"; "--traces=" ]);
      ("--traces", [ "facts"; "--traces=" ]);
      ("--days", [ "scale"; "--days"; "nan" ]);
      ("--days", [ "scale"; "--days=-1" ]);
      ("--idle-gap", [ "import"; "--idle-gap=-1"; "/dev/null" ]);
      ("--idle-gap", [ "import"; "--idle-gap"; "nan"; "/dev/null" ]);
      ("--servers", [ "import"; "--servers"; "0"; "/dev/null" ]);
    ]

(* [scale --jobs N] sizes the executor: the summary is the same at 1 and
   2 workers, and only the 2-worker run publishes worker 1's gauges. *)
let test_cli_scale_jobs () =
  if not (Sys.file_exists dfs_repro) then
    Alcotest.failf "%s not built" dfs_repro;
  let run jobs =
    let metrics = Filename.temp_file "dfs-scale" ".json" in
    Fun.protect
      ~finally:(fun () -> Sys.remove metrics)
      (fun () ->
        let code, out, err =
          run_cli
            [
              "scale"; "--clients"; "48"; "--servers"; "2"; "--partitions"; "2";
              "--days"; "0.002"; "--jobs"; jobs; "--metrics-out"; metrics;
            ]
        in
        Alcotest.(check int) (Printf.sprintf "--jobs %s: exit 0 (%s)" jobs err)
          0 code;
        (out, In_channel.with_open_bin metrics In_channel.input_all))
  in
  let out1, m1 = run "1" and out2, m2 = run "2" in
  Alcotest.(check string) "same summary at --jobs 1 and 2" out1 out2;
  Alcotest.(check bool) "summary printed" true (contains_sub ~sub:"trace_crc32c" out1);
  let shard1 m = contains_sub ~sub:"\"sim.shard1.busy_s\"" m in
  Alcotest.(check bool) "--jobs 1: no worker 1" false (shard1 m1);
  Alcotest.(check bool) "--jobs 2: worker 1 ran" true (shard1 m2)

(* -- properties -------------------------------------------------------------------- *)

let gen_kind =
  QCheck.Gen.oneof
    (List.map QCheck.Gen.return sample_kinds)

let gen_record =
  QCheck.Gen.(
    map2
      (fun (t, s, c) kind ->
        mk ~time:(Float.abs t) ~server:s ~client:c kind)
      (triple (float_bound_inclusive 1e6) (int_bound 3) (int_bound 50))
      gen_kind)

let gen_full_record =
  QCheck.Gen.(
    map2
      (fun (t, s, c) ((u, p, f), m, kind) ->
        mk ~time:(Float.abs t) ~server:s ~client:c ~user:u ~pid:p ~file:f
          ~migrated:m kind)
      (triple (float_bound_inclusive 1e6) (int_bound 3) (int_bound 50))
      (triple
         (triple (int_bound 9999) (int_bound 99999) (int_bound 999999))
         bool gen_kind))

let arb_record = QCheck.make gen_record
let arb_full_record = QCheck.make gen_full_record

(* The text codec's time-precision contract: times are printed with
   [%.6f], so one encode/decode quantizes the time to the nearest
   microsecond; every other field round-trips exactly. *)
let prop_codec_roundtrip =
  QCheck.Test.make ~name:"text codec roundtrip (random records)" ~count:300
    arb_full_record (fun r ->
      match Codec.decode (Codec.encode r) with
      | Ok r' ->
        (* the time comes back exactly as [%.6f] printed it... *)
        r'.time = float_of_string (Printf.sprintf "%.6f" r.time)
        (* ...and everything else must be untouched *)
        && Record.equal { r with time = r'.time } r'
      | Error _ -> false)

(* A time that already went through [%.6f] is a fixed point: re-encoding
   is the identity on the whole record, bit-for-bit. *)
let prop_text_codec_exact_on_quantized =
  QCheck.Test.make ~name:"text codec exact on quantized times" ~count:300
    arb_full_record (fun r ->
      let quantized =
        { r with Record.time = float_of_string (Printf.sprintf "%.6f" r.time) }
      in
      match Codec.decode (Codec.encode quantized) with
      | Ok r' -> Record.equal quantized r'
      | Error _ -> false)

(* The Bigarray-backed batch must read back exactly what the boxed
   records said, through both the bounds-checked and the unsafe
   accessors — the whole point of the columnar cursor is that analyses
   can trust it record for record. *)
let prop_batch_columns_match_boxed =
  QCheck.Test.make ~name:"bigarray columns agree with boxed records"
    ~count:100
    QCheck.(list_of_size Gen.(0 -- 60) arb_full_record)
    (fun rs ->
      let b = Record_batch.of_list rs in
      Record_batch.length b = List.length rs
      && List.for_all2 Record.equal rs (Array.to_list (Record_batch.to_array b))
      && List.for_all2
           (fun (r : Record.t) i ->
             Record.equal r (Record_batch.get b i)
             && Record_batch.time b i = r.time
             && Record_batch.time b i = Record_batch.Unsafe.time b i
             && Record_batch.server b i = Ids.Server.to_int r.server
             && Record_batch.server b i = Record_batch.Unsafe.server b i
             && Record_batch.client b i = Ids.Client.to_int r.client
             && Record_batch.client b i = Record_batch.Unsafe.client b i
             && Record_batch.user b i = Ids.User.to_int r.user
             && Record_batch.user b i = Record_batch.Unsafe.user b i
             && Record_batch.pid b i = Ids.Process.to_int r.pid
             && Record_batch.pid b i = Record_batch.Unsafe.pid b i
             && Record_batch.file b i = Ids.File.to_int r.file
             && Record_batch.file b i = Record_batch.Unsafe.file b i
             && Record_batch.migrated b i = r.migrated
             && Record_batch.migrated b i = Record_batch.Unsafe.migrated b i
             && Record_batch.tag b i = Record_batch.Unsafe.tag b i
             && Record_batch.a b i = Record_batch.Unsafe.a b i
             && Record_batch.b b i = Record_batch.Unsafe.b b i
             && Record_batch.c b i = Record_batch.Unsafe.c b i
             && Record_batch.d b i = Record_batch.Unsafe.d b i)
           rs
           (List.init (List.length rs) Fun.id))

(* Segment files are exact on any payload, mmap or not. *)
let prop_segment_roundtrip_exact =
  QCheck.Test.make ~name:"segment codec exact on random traces" ~count:60
    QCheck.(list_of_size Gen.(0 -- 40) arb_full_record)
    (fun rs ->
      let s = Segment.encode_batch (Record_batch.of_list rs) in
      match Segment.batch_of_string s with
      | Error e -> QCheck.Test.fail_report e
      | Ok b ->
        Record_batch.length b = List.length rs
        && List.for_all2 Record.equal rs
             (Array.to_list (Record_batch.to_array b)))

let prop_merge_sorted =
  QCheck.Test.make ~name:"merge output is time-sorted" ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 30) arb_record)
        (list_of_size Gen.(0 -- 30) arb_record))
    (fun (a, b) ->
      let sort l = List.sort Record.compare_time l in
      let merged = merge_lists [ sort a; sort b ] in
      Merge_model.is_sorted merged
      && List.length merged = List.length a + List.length b)

(* The streaming chunked merge must agree with the in-memory list merge
   record-for-record for any chunk size — including timestamp ties, which
   both sides resolve by server id and then by an identical sequence of
   heap operations. *)
let prop_merge_chunks_equiv =
  QCheck.Test.make ~name:"streaming merge equals in-memory merge" ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 4) (list_of_size Gen.(0 -- 25) arb_record))
        (int_range 1 5))
    (fun (sources, chunk_records) ->
      let sources = List.map (List.sort Record.compare_time) sources in
      let expected = Merge_model.merge sources in
      let streamed =
        records
          (Merge.merge_chunks ~chunk_records
             (List.map (chunks_of ~chunk_records) sources))
      in
      List.length expected = List.length streamed
      && List.for_all2 Record.equal expected streamed)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_codec_roundtrip;
      prop_text_codec_exact_on_quantized;
      prop_batch_columns_match_boxed;
      prop_segment_roundtrip_exact;
      prop_merge_sorted;
      prop_merge_chunks_equiv;
    ]

let suite =
  [
    ("ids roundtrip", `Quick, test_ids_roundtrip);
    ("ids collections", `Quick, test_ids_collections);
    ("record compare_time", `Quick, test_record_compare_time);
    ("record kind names", `Quick, test_record_kind_names);
    ("codec roundtrip all kinds", `Quick, test_codec_roundtrip_all_kinds);
    ("codec rejects bad input", `Quick, test_codec_bad_input);
    ("writer/reader via buffer", `Quick, test_writer_reader_buffer);
    ("reader rejects bad header", `Quick, test_reader_rejects_bad_header);
    ("reader reports line numbers", `Quick, test_reader_reports_line);
    ("file roundtrip", `Quick, test_file_roundtrip);
    ("merge two streams", `Quick, test_merge_two_streams);
    ("merge tie-break", `Quick, test_merge_tie_break);
    ("merge empty", `Quick, test_merge_empty_streams);
    ("scrub self users", `Quick, test_scrub);
    ("merge_chunks empty sources", `Quick, test_merge_chunks_empty);
    ("merge_chunks boundary straddling", `Quick, test_merge_chunks_boundary_straddling);
    ("merge_chunks single-record chunks", `Quick, test_merge_chunks_single_record_chunks);
    ("merge_chunks streaming scrub", `Quick, test_merge_chunks_scrub);
    ("merge_chunks spill roundtrip", `Quick, test_merge_chunks_spill_roundtrip);
    ("segment writer roundtrip", `Quick, test_segment_writer_roundtrip);
    ("segment mmap roundtrip all presets", `Slow,
      test_segment_mmap_roundtrip_presets);
    ("segment rejects truncation", `Quick, test_segment_rejects_truncation);
    ("segment rejects misalignment", `Quick, test_segment_rejects_misalignment);
    ("segment rejects malformed tag", `Quick, test_segment_rejects_malformed_tag);
    ("reader rejects negative text id", `Quick,
      test_reader_rejects_negative_text_id);
    ("reader validates columnar records", `Quick,
      test_reader_validates_columnar_records);
    ("cli hostile traces exit 2 in one line", `Quick, test_cli_hostile_traces);
    ("cli bad numeric flags exit 1 in one line", `Quick,
      test_cli_bad_numeric_flags);
    ("cli unusable paths exit 2 in one line", `Quick, test_cli_unusable_paths);
    ("cli scale --jobs sizes the executor", `Quick, test_cli_scale_jobs);
  ]
  @ qcheck_tests
