(* Tests for Dfs_ingest: SNIA row parsing, open/close inference, the
   end-to-end CSV importer, hostile-input handling, and replay of
   imported traces. *)

open Dfs_trace
module Snia = Dfs_ingest.Snia
module Infer = Dfs_ingest.Infer
module Import = Dfs_ingest.Import
module Idmap = Dfs_ingest.Idmap

let sample_csv =
  "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n\
   0.0,alpha,0,Read,0,4096,10\n\
   0.1,alpha,0,Read,4096,4096,11\n\
   0.2,beta,1,Write,0,8192,20\n\
   0.3,alpha,0,Read,8192,4096,12\n\
   5.0,alpha,0,Write,0,4096,13\n"

let import_exn ?config ?n_servers ?on_corruption text =
  match Import.of_csv_string ?config ?n_servers ?on_corruption text with
  | Ok v -> v
  | Error e -> Alcotest.failf "import failed: %s" e

let contains_sub haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else String.sub haystack i nn = needle || go (i + 1)
  in
  go 0

(* -- Snia row parsing ------------------------------------------------------- *)

let test_snia_parse_ok () =
  match Snia.parse_row "1.5, host-3 ,2,Write,4096,512,99" with
  | Ok r ->
    Alcotest.(check string) "host trimmed" "host-3" r.Snia.host;
    Alcotest.(check int) "disk" 2 r.disk;
    Alcotest.(check bool) "write" true (r.op = Snia.Write);
    Alcotest.(check int) "offset" 4096 r.offset;
    Alcotest.(check int) "size" 512 r.size
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_snia_parse_six_columns () =
  match Snia.parse_row "1.5,h,0,R,0,512" with
  | Ok r -> Alcotest.(check bool) "read" true (r.Snia.op = Snia.Read)
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_snia_header () =
  Alcotest.(check bool) "header detected" true
    (Snia.is_header "Timestamp,Hostname,DiskNumber,Type,Offset,Size");
  Alcotest.(check bool) "data row is not a header" false
    (Snia.is_header "1.0,h,0,Read,0,512")

let test_snia_hostile_rows () =
  let cases =
    [
      ("nan,h,0,Read,0,512", "non-finite timestamp");
      ("inf,h,0,Read,0,512", "non-finite timestamp");
      ("-1.0,h,0,Read,0,512", "negative timestamp");
      ("1.0,,0,Read,0,512", "empty hostname");
      ("1.0,h,-2,Read,0,512", "negative disk number");
      ("1.0,h,0,Frobnicate,0,512", "bad op type");
      ("1.0,h,0,Read,-4,512", "negative offset");
      ("1.0,h,0,Read,0,-512", "negative size");
      ("1.0,h,0,Read,0,9999999999", "1 GiB request limit");
      ("1.0,h,0,Read,0", "6 or 7 comma-separated columns");
      ("", "6 or 7 comma-separated columns");
      ("1.0,h,0,Read,0,512,9,extra", "6 or 7 comma-separated columns");
    ]
  in
  List.iter
    (fun (row, fragment) ->
      match Snia.parse_row row with
      | Ok _ -> Alcotest.failf "accepted hostile row %S" row
      | Error e ->
        if not (contains_sub e fragment) then
          Alcotest.failf "row %S: error %S lacks %S" row e fragment;
        Alcotest.(check bool) "one line" false (String.contains e '\n'))
    cases

(* -- Idmap ------------------------------------------------------------------ *)

let test_idmap_dense_first_seen () =
  let m = Idmap.create Ids.Client.of_int in
  let a = Idmap.get m "alpha" in
  let b = Idmap.get m "beta" in
  let a' = Idmap.get m "alpha" in
  Alcotest.(check int) "first key -> 0" 0 (Ids.Client.to_int a);
  Alcotest.(check int) "second key -> 1" 1 (Ids.Client.to_int b);
  Alcotest.(check bool) "stable" true (Ids.Client.equal a a');
  Alcotest.(check int) "size" 2 (Idmap.size m)

(* -- inference -------------------------------------------------------------- *)

let test_import_golden () =
  let records, stats = import_exn sample_csv in
  Alcotest.(check int) "rows" 5 stats.Import.rows;
  Alcotest.(check int) "bad rows" 0 stats.bad_rows;
  Alcotest.(check int) "hosts" 2 stats.hosts;
  Alcotest.(check int) "files" 2 stats.files;
  (* alpha#0 produces two runs (idle gap at t=5), beta#1 one: three
     sessions, each Open + Close; alpha's reads are sequential so no
     Repositions; alpha's second run rewinds to offset 0 at open. *)
  let opens, closes =
    List.partition
      (fun r -> match r.Record.kind with Record.Open _ -> true | _ -> false)
      (List.filter
         (fun r ->
           match r.Record.kind with
           | Record.Open _ | Record.Close _ -> true
           | _ -> false)
         records)
  in
  Alcotest.(check int) "three opens" 3 (List.length opens);
  Alcotest.(check int) "three closes" 3 (List.length closes);
  Alcotest.(check int) "no seeks" 0
    (List.length
       (List.filter
          (fun r ->
            match r.Record.kind with Record.Reposition _ -> true | _ -> false)
          records));
  (* First record: alpha's read run opens at t=0, read-only, on a
     pre-existing file sized at the run's extent. *)
  (match records with
  | first :: _ -> (
    Alcotest.(check (float 1e-9)) "starts at zero" 0.0 first.Record.time;
    match first.Record.kind with
    | Record.Open { mode; created; size; start_pos; _ } ->
      Alcotest.(check bool) "read only" true (mode = Record.Read_only);
      Alcotest.(check bool) "not created" false created;
      Alcotest.(check int) "size = extent" (3 * 4096) size;
      Alcotest.(check int) "start pos" 0 start_pos
    | k -> Alcotest.failf "first record is %s, not open" (Record.kind_name k))
  | [] -> Alcotest.fail "no records");
  (* beta's single write run: created (first-ever access is a write). *)
  let beta_open =
    List.find_map
      (fun r ->
        match r.Record.kind with
        | Record.Open { created = true; mode; size; _ } -> Some (mode, size)
        | _ -> None)
      records
  in
  (match beta_open with
  | Some (mode, size) ->
    Alcotest.(check bool) "write only" true (mode = Record.Write_only);
    Alcotest.(check int) "created empty" 0 size
  | None -> Alcotest.fail "no created open (beta's write run)");
  (* alpha's second run (t=5 write) reopens a file whose size the first
     run established. *)
  let last_close =
    List.fold_left
      (fun acc r ->
        match r.Record.kind with
        | Record.Close { bytes_written; _ } -> Some bytes_written
        | _ -> acc)
      None records
  in
  match last_close with
  | Some bytes_written ->
    Alcotest.(check int) "close carries bytes written" 4096 bytes_written
  | None -> Alcotest.fail "no close"

let test_import_filetime_rebase () =
  (* FILETIME ticks (100 ns) spanning 2 s; detection must rebase to
     seconds from the first row. *)
  let csv =
    "128166372000000000,h,0,Read,0,4096\n128166372020000000,h,0,Read,4096,4096\n"
  in
  let records, stats = import_exn csv in
  Alcotest.(check bool) "span ~2s" true (abs_float (stats.Import.duration -. 2.0) < 0.1);
  List.iter
    (fun r ->
      Alcotest.(check bool) "small times" true (r.Record.time < 10.0))
    records

let test_import_offset_rebase () =
  (* Multi-terabyte block addresses must land in int32-safe positions. *)
  let csv =
    "0.0,h,0,Read,7014609920,4096\n0.1,h,0,Read,7014614016,4096\n"
  in
  let records, _ = import_exn csv in
  List.iter
    (fun r ->
      match Record.validate r with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "invalid record: %s" e)
    records;
  match records with
  | { Record.kind = Record.Open { start_pos; _ }; _ } :: _ ->
    Alcotest.(check int) "rebased to file base" 0 start_pos
  | _ -> Alcotest.fail "expected open first"

let test_import_header_comments_crlf () =
  let csv =
    "# a comment\r\nTimestamp,Hostname,DiskNumber,Type,Offset,Size\r\n\
     0.0,h,0,Read,0,4096\r\n\r\n0.1,h,0,Read,4096,4096\r\n"
  in
  let _, stats = import_exn csv in
  Alcotest.(check int) "rows" 2 stats.Import.rows

let test_import_unsorted_rows () =
  (* Rows arrive shuffled in time; import must sort before inference. *)
  let csv = "5.0,h,0,Read,8192,4096\n0.0,h,0,Read,0,4096\n" in
  let records, _ = import_exn csv in
  let sorted = List.stable_sort Record.compare_time records in
  Alcotest.(check bool) "output time-sorted" true
    (List.for_all2 (fun a b -> Record.equal a b) records sorted)

(* -- hostile CSVs through the importer -------------------------------------- *)

let test_import_fail_policy () =
  let csv = "0.0,h,0,Read,0,4096\nnan,h,0,Read,0,4096\n" in
  match Import.of_csv_string ~source:"evil.csv" csv with
  | Ok _ -> Alcotest.fail "hostile CSV accepted"
  | Error e ->
    Alcotest.(check bool) "one line" false (String.contains e '\n');
    Alcotest.(check bool) "has file:line context" true
      (String.length e > 10 && String.sub e 0 10 = "evil.csv:2")

let test_import_salvage_policy () =
  let csv =
    "0.0,h,0,Read,0,4096\nnan,h,0,Read,0,4096\n0.5,h,0,Read,4096,4096\n\
     1.0,h,0,bad-op,0,1\n"
  in
  let records, stats =
    import_exn ~on_corruption:Corruption.Salvage csv
  in
  Alcotest.(check int) "good rows kept" 2 stats.Import.rows;
  Alcotest.(check int) "bad rows counted" 2 stats.bad_rows;
  Alcotest.(check bool) "records produced" true (List.length records > 0)

let test_import_empty_input () =
  (match Import.of_csv_string "" with
  | Ok _ -> Alcotest.fail "empty input accepted"
  | Error e -> Alcotest.(check bool) "one line" false (String.contains e '\n'));
  match Import.of_csv_string "Timestamp,Hostname,DiskNumber,Type,Offset,Size\n" with
  | Ok _ -> Alcotest.fail "header-only input accepted"
  | Error _ -> ()

(* -- qcheck properties ------------------------------------------------------ *)

let gen_accesses =
  QCheck.Gen.(
    list_size (int_range 1 60)
      (map
         (fun (((host, disk), (op, dt)), (offset, size)) ->
           (host, disk, op, dt, offset, size))
         (pair
            (pair
               (pair (oneofl [ "h0"; "h1"; "h2" ]) (int_range 0 2))
               (pair (oneofl [ `Read; `Write ]) (int_range 0 30)))
            (pair (int_range 0 100_000) (int_range 0 65536)))))

let csv_of_accesses accesses =
  let b = Buffer.create 256 in
  let t = ref 0.0 in
  List.iter
    (fun (host, disk, op, dt, offset, size) ->
      t := !t +. (float_of_int dt /. 10.0);
      Buffer.add_string b
        (Printf.sprintf "%.3f,%s,%d,%s,%d,%d\n" !t host disk
           (match op with `Read -> "Read" | `Write -> "Write")
           offset size))
    accesses;
  Buffer.contents b

let stream_key (r : Record.t) =
  ( Ids.Client.to_int r.client,
    Ids.Process.to_int r.pid,
    Ids.File.to_int r.file )

(* Every Open must pair with exactly one later Close in its stream, and
   a stream never holds two sessions at once (runs are sequential). *)
let check_open_close_pairing records =
  let depth : (int * int * int, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (r : Record.t) ->
      let key = stream_key r in
      let d = Option.value ~default:0 (Hashtbl.find_opt depth key) in
      match r.Record.kind with
      | Record.Open _ ->
        if d <> 0 then QCheck.Test.fail_report "open while already open";
        Hashtbl.replace depth key 1
      | Record.Close _ ->
        if d <> 1 then QCheck.Test.fail_report "close without open";
        Hashtbl.replace depth key 0
      | Record.Reposition _ ->
        if d <> 1 then QCheck.Test.fail_report "seek outside a session"
      | _ -> ())
    records;
  Hashtbl.iter
    (fun _ d -> if d <> 0 then QCheck.Test.fail_report "unclosed open")
    depth;
  true

let prop_inference_well_formed =
  QCheck.Test.make ~name:"imported records are valid, sorted, paired"
    ~count:200 (QCheck.make gen_accesses) (fun accesses ->
      QCheck.assume (accesses <> []);
      match Import.of_csv_string (csv_of_accesses accesses) with
      | Error e -> QCheck.Test.fail_reportf "import failed: %s" e
      | Ok (records, stats) ->
        if records = [] then QCheck.Test.fail_report "no records";
        List.iter
          (fun r ->
            match Record.validate r with
            | Ok _ -> ()
            | Error e -> QCheck.Test.fail_reportf "invalid record: %s" e)
          records;
        let rec sorted = function
          | a :: (b :: _ as rest) ->
            Record.compare_time a b <= 0 && sorted rest
          | _ -> true
        in
        if not (sorted records) then
          QCheck.Test.fail_report "records out of order";
        if stats.Import.records <> List.length records then
          QCheck.Test.fail_report "stats.records mismatch";
        check_open_close_pairing records)

let prop_import_deterministic =
  QCheck.Test.make ~name:"import is a pure function of the CSV" ~count:50
    (QCheck.make gen_accesses) (fun accesses ->
      QCheck.assume (accesses <> []);
      let csv = csv_of_accesses accesses in
      match (Import.of_csv_string csv, Import.of_csv_string csv) with
      | Ok (a, _), Ok (b, _) -> List.for_all2 Record.equal a b
      | _ -> QCheck.Test.fail_report "import failed")

let prop_roundtrip_writer_reader =
  QCheck.Test.make ~name:"import -> write -> read roundtrip (text+columnar)"
    ~count:50 (QCheck.make gen_accesses) (fun accesses ->
      QCheck.assume (accesses <> []);
      match Import.of_csv_string (csv_of_accesses accesses) with
      | Error e -> QCheck.Test.fail_reportf "import failed: %s" e
      | Ok (records, _) ->
        List.for_all
          (fun format ->
            let buf = Buffer.create 4096 in
            let w = Writer.to_buffer ~format buf in
            List.iter (Writer.write w) records;
            Writer.flush w;
            match Reader.batch_of_string (Buffer.contents buf) with
            | Error e -> QCheck.Test.fail_reportf "read back failed: %s" e
            | Ok b ->
              let records' = Array.to_list (Record_batch.to_array b) in
              List.length records = List.length records'
              && List.for_all2
                   (fun a b ->
                     (* Text quantizes time to 1 µs; compare payloads
                        exactly and times to that precision. *)
                     abs_float (a.Record.time -. b.Record.time) < 1e-5
                     && Record.equal { a with time = 0.0 } { b with time = 0.0 })
                   records records')
          [ Writer.Text; Writer.Columnar ])

(* -- replay ----------------------------------------------------------------- *)

let replay records = Dfs_workload.Replay.run (Record_batch.of_list records)

let replay_exn records =
  match replay records with
  | Ok v -> v
  | Error e -> Alcotest.failf "replay failed: %s" e

let test_replay_imported_smoke () =
  let records, _ = import_exn sample_csv in
  let cluster, stats = replay_exn records in
  Alcotest.(check int) "all applied" (List.length records)
    stats.Dfs_workload.Replay.applied;
  Alcotest.(check int) "nothing skipped" 0 stats.skipped;
  Alcotest.(check int) "no synthesized opens" 0 stats.synthesized_opens;
  let batch = Dfs_trace.Sink.to_batch (Dfs_sim.Cluster.merged_chunks cluster) in
  Alcotest.(check bool) "cluster logged a trace" true
    (Dfs_trace.Record_batch.length batch > 0)

let test_replay_deterministic () =
  let records, _ = import_exn sample_csv in
  let digest records =
    let cluster, _ = replay_exn records in
    Dfs_workload.Sharded.digest (Dfs_sim.Cluster.merged_chunks cluster)
  in
  Alcotest.(check int) "same digest on repeat" (digest records)
    (digest records)

let test_replay_orphan_close () =
  (* A close with no preceding open must synthesize the open, not
     crash or silently drop the session. *)
  let records, _ = import_exn sample_csv in
  let orphan =
    match List.rev records with
    | last :: _ ->
      {
        last with
        Record.time = last.Record.time +. 10.0;
        kind =
          Record.Close
            { size = 4096; final_pos = 4096; bytes_read = 4096; bytes_written = 0 };
      }
    | [] -> Alcotest.fail "no records"
  in
  let _, stats = replay_exn (records @ [ orphan ]) in
  Alcotest.(check int) "open synthesized" 1
    stats.Dfs_workload.Replay.synthesized_opens;
  Alcotest.(check int) "nothing skipped" 0 stats.skipped

let test_replay_duplicate_close () =
  (* Two closes for one open: the second becomes an orphan and gets a
     synthesized open — sessions stay balanced either way. *)
  let records, _ = import_exn sample_csv in
  let dup =
    List.concat_map
      (fun (r : Record.t) ->
        match r.Record.kind with
        | Record.Close _ ->
          [ r; { r with time = r.Record.time +. 1e-3 } ]
        | _ -> [ r ])
      records
    |> List.stable_sort Record.compare_time
  in
  let _, stats = replay_exn dup in
  Alcotest.(check int) "duplicate closes synthesized opens" 3
    stats.Dfs_workload.Replay.synthesized_opens;
  Alcotest.(check int) "nothing skipped" 0 stats.skipped

let test_replay_rejects_bad_traces () =
  let records, _ = import_exn sample_csv in
  (match replay [] with
  | Ok _ -> Alcotest.fail "empty trace accepted"
  | Error e -> Alcotest.(check bool) "one line" false (String.contains e '\n'));
  (match replay (List.rev records) with
  | Ok _ -> Alcotest.fail "unsorted trace accepted"
  | Error e -> Alcotest.(check bool) "one line" false (String.contains e '\n'));
  let huge =
    match records with
    | r :: _ -> { r with Record.client = Ids.Client.of_int 1_000_000 }
    | [] -> Alcotest.fail "no records"
  in
  match replay [ huge ] with
  | Ok _ -> Alcotest.fail "oversized client id accepted"
  | Error e -> Alcotest.(check bool) "one line" false (String.contains e '\n')

let test_replayed_table1_not_full_length () =
  (* A replayed trace covers its own span: Table 1 must not call it a
     full-length 24-hour trace. *)
  let records, _ = import_exn sample_csv in
  let path = Filename.temp_file "dfs-replay" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Writer.with_file path (fun w -> List.iter (Writer.write w) records);
      match Dfs_core.Dataset.of_replay path with
      | Error e -> Alcotest.failf "replay failed: %s" e
      | Ok (ds, _) ->
        let out =
          match Dfs_core.Experiment.find "table1" with
          | Some e -> e.run ds
          | None -> Alcotest.fail "no table1"
        in
        Alcotest.(check bool) "no full-length note" false
          (contains_sub out "Full-length"))

let suite =
  [
    ("snia parse ok", `Quick, test_snia_parse_ok);
    ("snia six columns", `Quick, test_snia_parse_six_columns);
    ("snia header", `Quick, test_snia_header);
    ("snia hostile rows", `Quick, test_snia_hostile_rows);
    ("idmap dense first-seen", `Quick, test_idmap_dense_first_seen);
    ("import golden", `Quick, test_import_golden);
    ("import filetime rebase", `Quick, test_import_filetime_rebase);
    ("import offset rebase", `Quick, test_import_offset_rebase);
    ("import header/comments/crlf", `Quick, test_import_header_comments_crlf);
    ("import unsorted rows", `Quick, test_import_unsorted_rows);
    ("import fail policy", `Quick, test_import_fail_policy);
    ("import salvage policy", `Quick, test_import_salvage_policy);
    ("import empty input", `Quick, test_import_empty_input);
    QCheck_alcotest.to_alcotest prop_inference_well_formed;
    QCheck_alcotest.to_alcotest prop_import_deterministic;
    QCheck_alcotest.to_alcotest prop_roundtrip_writer_reader;
    ("replay imported smoke", `Quick, test_replay_imported_smoke);
    ("replay deterministic", `Quick, test_replay_deterministic);
    ("replay orphan close", `Quick, test_replay_orphan_close);
    ("replay duplicate close", `Quick, test_replay_duplicate_close);
    ("replay rejects bad traces", `Quick, test_replay_rejects_bad_traces);
    ("replayed table 1 not full-length", `Quick, test_replayed_table1_not_full_length);
  ]
