(* Crash-safety and integrity tests: Io_retry backoff, Durable atomic
   replacement, the fsck corruption matrix (bit flips, truncations,
   orphan tmps, unknown and retired-format files, exit codes), salvage-prefix
   properties, and a fork+SIGKILL chaos harness asserting that every
   spill chunk sealed before the kill is bit-identical to the same chunk
   of an uninterrupted run. *)

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

let kind_of_int i =
  match i mod 5 with
  | 0 ->
    Record.Open
      {
        mode = Record.Read_only;
        created = false;
        is_dir = false;
        size = i;
        start_pos = 0;
      }
  | 1 ->
    Record.Close
      { size = i; final_pos = i; bytes_read = i / 2; bytes_written = i / 2 }
  | 2 -> Record.Dir_read { bytes = i land 0xFFF }
  | 3 -> Record.Truncate { old_size = i }
  | _ -> Record.Delete { size = i; is_dir = false }

let nth_record i =
  mk
    ~time:(float_of_int i *. 0.001)
    ~server:(i mod 4) ~client:(i mod 50) ~user:(i mod 30) ~pid:(i mod 100)
    ~file:(i mod 1000) (kind_of_int i)

let records n = List.init n nth_record

let counter_value name =
  match Dfs_obs.Metrics.find name with
  | Some (Dfs_obs.Metrics.Counter c) -> Dfs_obs.Metrics.value c
  | _ -> 0

(* -- scratch directories ---------------------------------------------------- *)

let tmp_seq = ref 0

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let with_tmpdir f =
  incr tmp_seq;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dfs-crash-%d-%d" (Unix.getpid ()) !tmp_seq)
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_all path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let batch_of_file_exn ?on_corruption path =
  match Segment.batch_of_file ?on_corruption path with
  | Ok b -> b
  | Error e -> Alcotest.failf "batch_of_file %s: %s" path e

let poke path off byte =
  let b = Bytes.of_string (read_all path) in
  Bytes.set b off byte;
  write_all path (Bytes.to_string b)

(* -- Io_retry ---------------------------------------------------------------- *)

let with_inject hook f =
  Io_retry.set_inject (Some hook);
  Fun.protect ~finally:(fun () -> Io_retry.set_inject None) f

let test_io_retry_transient_then_success () =
  let before = counter_value "trace.io.retries" in
  let v =
    with_inject
      (fun ~op:_ ~path:_ ~attempt ->
        if attempt < 2 then raise (Unix.Unix_error (Unix.EIO, "write", "x")))
      (fun () ->
        Io_retry.run ~base_delay:1e-4 ~op:"test" ~path:"x" (fun () -> 42))
  in
  Alcotest.(check int) "converges" 42 v;
  Alcotest.(check int) "two retries counted" (before + 2)
    (counter_value "trace.io.retries")

let test_io_retry_gives_up () =
  let giveups = counter_value "trace.io.giveups" in
  (match
     with_inject
       (fun ~op:_ ~path:_ ~attempt:_ ->
         raise (Unix.Unix_error (Unix.EIO, "write", "x")))
       (fun () ->
         Io_retry.run ~attempts:3 ~base_delay:1e-4 ~op:"test" ~path:"x"
           (fun () -> ()))
   with
  | () -> Alcotest.fail "expected EIO to escape after 3 attempts"
  | exception Unix.Unix_error (Unix.EIO, _, _) -> ());
  Alcotest.(check int) "giveup counted" (giveups + 1)
    (counter_value "trace.io.giveups")

let test_io_retry_permanent_is_immediate () =
  let before = counter_value "trace.io.retries" in
  (match
     with_inject
       (fun ~op:_ ~path:_ ~attempt:_ ->
         raise (Unix.Unix_error (Unix.ENOSPC, "write", "x")))
       (fun () -> Io_retry.run ~op:"test" ~path:"x" (fun () -> ()))
   with
  | () -> Alcotest.fail "expected ENOSPC to escape"
  | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> ());
  Alcotest.(check int) "no retries for permanent errors" before
    (counter_value "trace.io.retries")

(* -- Durable ----------------------------------------------------------------- *)

let test_durable_replace_atomic () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "out.bin" in
      ignore (Durable.replace ~op:"test" ~path (fun oc -> output_string oc "v1"));
      Alcotest.(check string) "content" "v1" (read_all path);
      Alcotest.(check bool) "no tmp left" false
        (Sys.file_exists (Durable.tmp_path path));
      (* Replacing again swaps content; a crash would have left v1. *)
      ignore
        (Durable.replace ~op:"test" ~path (fun oc -> output_string oc "v2!"));
      Alcotest.(check string) "replaced" "v2!" (read_all path))

let test_durable_replace_failure_leaves_old () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "out.bin" in
      write_all path "old";
      (match
         Durable.replace ~op:"test" ~path (fun oc ->
             output_string oc "partial";
             failwith "boom")
       with
      | _ -> Alcotest.fail "expected failure to escape"
      | exception Failure _ -> ());
      Alcotest.(check string) "old content untouched" "old" (read_all path);
      Alcotest.(check bool) "tmp cleaned up" false
        (Sys.file_exists (Durable.tmp_path path)))

let test_durable_replace_retries_transient () =
  (* Compose with a fault-injected disk: first attempt dies with EIO,
     the retry rewrites the whole tmp file (idempotent) and seals. *)
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "out.bin" in
      let v =
        with_inject
          (fun ~op ~path:_ ~attempt ->
            if op = "test-seal" && attempt = 0 then
              raise (Unix.Unix_error (Unix.EIO, "open", path)))
          (fun () ->
            Durable.replace ~op:"test-seal" ~path (fun oc ->
                output_string oc "sealed";
                7))
      in
      Alcotest.(check int) "callback result" 7 v;
      Alcotest.(check string) "sealed despite EIO" "sealed" (read_all path))

(* -- fsck corruption matrix -------------------------------------------------- *)

let write_columnar path batches =
  let oc = open_out_bin path in
  List.iter (fun b -> ignore (Segment.write_batch oc b)) batches;
  close_out oc

let two_segment_file dir =
  let path = Filename.concat dir "trace.dfsc" in
  let b1 = Record_batch.of_list (records 10) in
  let b2 =
    Record_batch.of_list (List.init 8 (fun i -> nth_record (100 + i)))
  in
  write_columnar path [ b1; b2 ];
  (path, Segment.segment_bytes ~count:10)

let test_fsck_clean_all_formats () =
  with_tmpdir (fun dir ->
      let columnar = Filename.concat dir "a.dfsc" in
      write_columnar columnar [ Record_batch.of_list (records 20) ];
      let text = Filename.concat dir "c.trace" in
      Writer.with_file ~format:Writer.Text text (fun w ->
          List.iter (Writer.write w) (records 20));
      let verdicts = Fsck.check_paths [ dir ] in
      Alcotest.(check int) "two files" 2 (List.length verdicts);
      List.iter
        (fun v ->
          Alcotest.(check string)
            (v.Fsck.path ^ " clean")
            "ok"
            (Fsck.status_to_string v.Fsck.status);
          Alcotest.(check int) (v.Fsck.path ^ " records") 20 v.Fsck.records)
        verdicts;
      Alcotest.(check int) "exit 0" 0 (Fsck.exit_code verdicts))

let test_fsck_column_flip_and_repair () =
  with_tmpdir (fun dir ->
      let path, seg1 = two_segment_file dir in
      (* Flip a byte in the times column of the second segment. *)
      poke path (seg1 + Segment.header_bytes + 3) '\xA5';
      let v = Fsck.check_file path in
      Alcotest.(check string) "corrupt" "corrupt"
        (Fsck.status_to_string v.Fsck.status);
      Alcotest.(check int) "first segment survives" 10 v.Fsck.records;
      Alcotest.(check int) "valid prefix is segment 1" seg1 v.Fsck.valid_bytes;
      (match v.Fsck.reason with
      | Some r ->
        Alcotest.(check bool) "reason names the column" true
          (let needle = "checksum mismatch in column" in
           let rec has i =
             i + String.length needle <= String.length r
             && (String.sub r i (String.length needle) = needle || has (i + 1))
           in
           has 0)
      | None -> Alcotest.fail "expected a reason");
      (* Salvage readers keep the same prefix the verdict reports. *)
      let detected = Corruption.detected () in
      let b = batch_of_file_exn ~on_corruption:Corruption.Salvage path in
      Alcotest.(check int) "salvage reads the prefix" 10
        (Record_batch.length b);
      Alcotest.(check bool) "corruption counted" true
        (Corruption.detected () > detected);
      (* Repair truncates to the sealed prefix; a second pass is clean. *)
      let v = Fsck.check_file ~repair:true path in
      Alcotest.(check string) "repaired" "repaired"
        (Fsck.status_to_string v.Fsck.status);
      Alcotest.(check int) "exit 1 even when repaired" 1 (Fsck.exit_code [ v ]);
      let v = Fsck.check_file path in
      Alcotest.(check string) "clean after repair" "ok"
        (Fsck.status_to_string v.Fsck.status);
      Alcotest.(check int) "prefix records" 10 v.Fsck.records;
      Alcotest.(check int) "truncated to prefix" seg1 v.Fsck.total_bytes)

let test_fsck_header_flip_rewrites_empty () =
  with_tmpdir (fun dir ->
      let path, _ = two_segment_file dir in
      (* Damage the first segment's header (a reserved byte, covered by
         the header checksum): nothing is salvageable. *)
      poke path 100 '\x7F';
      let v = Fsck.check_file ~repair:true path in
      Alcotest.(check string) "repaired" "repaired"
        (Fsck.status_to_string v.Fsck.status);
      Alcotest.(check int) "nothing salvaged" 0 v.Fsck.records;
      let v = Fsck.check_file path in
      Alcotest.(check string) "empty segment is clean" "ok"
        (Fsck.status_to_string v.Fsck.status);
      Alcotest.(check int) "still sniffs columnar"
        (Segment.segment_bytes ~count:0)
        v.Fsck.total_bytes)

let test_fsck_truncation_keeps_sealed_prefix () =
  with_tmpdir (fun dir ->
      let path, seg1 = two_segment_file dir in
      Unix.truncate path (seg1 + 50);
      let v = Fsck.check_file ~repair:true path in
      Alcotest.(check string) "repaired" "repaired"
        (Fsck.status_to_string v.Fsck.status);
      Alcotest.(check int) "sealed prefix kept" 10 v.Fsck.records;
      Alcotest.(check int) "truncated to the boundary" seg1 v.Fsck.total_bytes;
      let b = batch_of_file_exn path in
      Alcotest.(check int) "readable after repair" 10 (Record_batch.length b))

let test_fsck_retired_formats_unknown () =
  with_tmpdir (fun dir ->
      let files =
        [
          ("old.dfsb", Test_trace.retired_binary);
          ("old.dfsc", Test_trace.retired_v1_segment ());
        ]
      in
      List.iter
        (fun (name, bytes) -> write_all (Filename.concat dir name) bytes)
        files;
      let verdicts = Fsck.check_paths ~repair:true [ dir ] in
      Alcotest.(check int) "both seen" 2 (List.length verdicts);
      List.iter
        (fun v ->
          Alcotest.(check string) (v.Fsck.path ^ " unknown") "unknown"
            (Fsck.status_to_string v.Fsck.status);
          Alcotest.(check bool) (v.Fsck.path ^ " not repaired") false
            v.Fsck.repaired)
        verdicts;
      List.iter
        (fun (name, bytes) ->
          Alcotest.(check bool) (name ^ " byte-for-byte untouched") true
            (read_all (Filename.concat dir name) = bytes))
        files;
      Alcotest.(check int) "exit 1" 1 (Fsck.exit_code verdicts))

let test_fsck_text_bad_line () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "t.trace" in
      Writer.with_file ~format:Writer.Text path (fun w ->
          List.iter (Writer.write w) (records 10));
      let s = read_all path in
      (* Damage the first byte of the third line (header + record + X). *)
      let nl1 = String.index s '\n' in
      let nl2 = String.index_from s (nl1 + 1) '\n' in
      poke path (nl2 + 1) '\xFF';
      let v = Fsck.check_file path in
      Alcotest.(check string) "corrupt" "corrupt"
        (Fsck.status_to_string v.Fsck.status);
      Alcotest.(check int) "one record before the damage" 1 v.Fsck.records;
      let v = Fsck.check_file ~repair:true path in
      Alcotest.(check string) "repaired" "repaired"
        (Fsck.status_to_string v.Fsck.status);
      let v = Fsck.check_file path in
      Alcotest.(check string) "clean after repair" "ok"
        (Fsck.status_to_string v.Fsck.status);
      Alcotest.(check int) "prefix kept" 1 v.Fsck.records)

let test_fsck_orphan_tmp_and_unknown () =
  with_tmpdir (fun dir ->
      let orphan = Filename.concat dir "seg-000003.dfsc.tmp" in
      write_all orphan "half-written garbage";
      let junk = Filename.concat dir "junk.trace" in
      write_all junk "hello, this is not a trace\n";
      let verdicts = Fsck.check_paths ~repair:true [ dir ] in
      Alcotest.(check int) "both seen" 2 (List.length verdicts);
      let find fmt =
        List.find (fun v -> v.Fsck.format = fmt) verdicts
      in
      Alcotest.(check string) "orphan removed" "repaired"
        (Fsck.status_to_string (find "tmp").Fsck.status);
      Alcotest.(check bool) "orphan gone" false (Sys.file_exists orphan);
      Alcotest.(check string) "unknown reported" "unknown"
        (Fsck.status_to_string (find "unknown").Fsck.status);
      Alcotest.(check string) "unknown never touched"
        "hello, this is not a trace\n" (read_all junk);
      Alcotest.(check int) "exit 1" 1 (Fsck.exit_code verdicts))

let test_fsck_exit_codes () =
  with_tmpdir (fun dir ->
      let clean = Filename.concat dir "ok.dfsc" in
      write_columnar clean [ Record_batch.of_list (records 3) ];
      let ok = Fsck.check_file clean in
      Alcotest.(check int) "all clean: 0" 0 (Fsck.exit_code [ ok ]);
      let missing = Fsck.check_file (Filename.concat dir "absent.dfsc") in
      Alcotest.(check string) "missing is an I/O error" "error"
        (Fsck.status_to_string missing.Fsck.status);
      Alcotest.(check int) "I/O error dominates: 2" 2
        (Fsck.exit_code [ ok; missing ]))

(* -- salvage-prefix properties ------------------------------------------------ *)

let gen_trace =
  QCheck.Gen.(
    map
      (fun (n, salt) -> List.init n (fun i -> nth_record ((salt * 131) + i)))
      (pair (int_bound 120) (int_bound 1000)))

let encode_segments rs =
  let buf = Buffer.create 4096 in
  let rec chunks = function
    | [] -> ()
    | rs ->
      let n = min 37 (List.length rs) in
      let batch, rest =
        (List.filteri (fun i _ -> i < n) rs, List.filteri (fun i _ -> i >= n) rs)
      in
      Buffer.add_string buf (Segment.encode_batch (Record_batch.of_list batch));
      chunks rest
  in
  chunks rs;
  Buffer.contents buf

let scan_records (scan : Segment.scan) =
  List.concat_map
    (fun b -> List.init (Record_batch.length b) (Record_batch.get b))
    scan.Segment.batches

let is_prefix_of xs ys =
  let rec go = function
    | [], _ -> true
    | _, [] -> false
    | x :: xs, y :: ys -> Record.equal x y && go (xs, ys)
  in
  go (xs, ys)

(* Truncating a columnar image anywhere salvages a whole-segment prefix,
   and the salvaged prefix re-scans clean. *)
let prop_salvage_prefix_on_truncation =
  QCheck.Test.make ~name:"salvage yields a clean record prefix (truncation)"
    ~count:150
    QCheck.(make Gen.(pair gen_trace (int_bound 10_000)))
    (fun (rs, cut0) ->
      let s = encode_segments rs in
      let cut = min cut0 (String.length s) in
      let scan = Segment.scan_string (String.sub s 0 cut) in
      let salvaged = scan_records scan in
      scan.Segment.valid_bytes <= cut
      && is_prefix_of salvaged rs
      && (cut = String.length s || List.length salvaged <= List.length rs)
      &&
      let again =
        Segment.scan_string (String.sub s 0 scan.Segment.valid_bytes)
      in
      again.Segment.error = None && again.Segment.records = scan.Segment.records)

(* A single flipped byte anywhere never makes salvage invent records:
   whatever survives is still a prefix of the original trace. *)
let prop_salvage_prefix_on_bitflip =
  QCheck.Test.make ~name:"salvage yields a record prefix (byte flip)"
    ~count:150
    QCheck.(make Gen.(pair gen_trace (int_bound 100_000)))
    (fun (rs, pos0) ->
      let s = encode_segments rs in
      if String.length s = 0 then true
      else begin
        let pos = pos0 mod String.length s in
        let b = Bytes.of_string s in
        Bytes.set b pos (Char.chr (Char.code s.[pos] lxor 0x5A));
        let scan = Segment.scan_string (Bytes.to_string b) in
        is_prefix_of (scan_records scan) rs
      end)

(* -- chaos: SIGKILL mid-spill ------------------------------------------------- *)

let chaos_records = 120_000

let chaos_chunk = 4096

let emit_all dir =
  let sink =
    Sink.create ~chunk_records:chaos_chunk ~spill:{ Sink.dir; name = "chaos" }
      ()
  in
  for i = 0 to chaos_records - 1 do
    Sink.emit sink (nth_record i)
  done;
  ignore (Sink.close sink)

(* Forking is off-limits once earlier suites have spawned domains
   (OCaml 5), so the chaos child is this very test binary re-executed
   with [DFS_CRASH_CHILD_DIR] set: {!maybe_run_child} (called first
   thing in [test_main]) emits the spill run and exits before alcotest
   starts. *)
let child_env_var = "DFS_CRASH_CHILD_DIR"

let maybe_run_child () =
  match Sys.getenv_opt child_env_var with
  | Some dir ->
    emit_all dir;
    exit 0
  | None -> ()

let dfsc_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".dfsc")
  |> List.sort String.compare

let test_chaos_sigkill_salvage () =
  with_tmpdir (fun refdir ->
      with_tmpdir (fun killdir ->
          emit_all refdir;
          let reference = dfsc_files refdir in
          Alcotest.(check bool) "reference run spilled" true
            (List.length reference > 2);
          let seed =
            (Unix.getpid () * 7919) lxor int_of_float (Unix.gettimeofday () *. 1e3)
          in
          Printf.printf "chaos harness seed: %d\n%!" seed;
          let st = Random.State.make [| seed |] in
          let delay = 0.002 +. Random.State.float st 0.040 in
          let env =
            Array.append (Unix.environment ())
              [| child_env_var ^ "=" ^ killdir |]
          in
          let pid =
            Unix.create_process_env Sys.executable_name
              [| Sys.executable_name |] env Unix.stdin Unix.stdout Unix.stderr
          in
          Unix.sleepf delay;
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid);
          (* fsck --repair: salvages the sealed prefix, removes any
             orphan tmp from a seal in flight. *)
          let verdicts = Fsck.check_paths ~repair:true [ killdir ] in
          Alcotest.(check bool) "fsck never hits an I/O error" true
            (Fsck.exit_code verdicts <= 1);
          let verdicts = Fsck.check_paths [ killdir ] in
          Alcotest.(check int) "clean after repair" 0
            (Fsck.exit_code verdicts);
          (* Every surviving chunk is bit-identical to the same chunk of
             the uninterrupted run: atomic sealing means there is no
             third state. *)
          let survived = dfsc_files killdir in
          Alcotest.(check bool) "survivors are a subset" true
            (List.length survived <= List.length reference);
          List.iteri
            (fun i name ->
              Alcotest.(check string)
                (Printf.sprintf "chunk %d is a reference chunk" i)
                (List.nth reference i) name;
              Alcotest.(check bool)
                (Printf.sprintf "%s bit-identical to reference" name)
                true
                (read_all (Filename.concat killdir name)
                = read_all (Filename.concat refdir name)))
            survived;
          (* And the salvaged prefix analyzes: every record matches the
             reference stream in order. *)
          let salvaged = ref 0 in
          List.iter
            (fun name ->
              let b = batch_of_file_exn (Filename.concat killdir name) in
              for j = 0 to Record_batch.length b - 1 do
                let want = nth_record (!salvaged + j) in
                if not (Record.equal want (Record_batch.get b j)) then
                  Alcotest.failf "record %d diverges from reference"
                    (!salvaged + j)
              done;
              salvaged := !salvaged + Record_batch.length b)
            survived;
          Alcotest.(check bool) "salvaged count lands on a seal boundary"
            true
            (!salvaged mod chaos_chunk = 0 || !salvaged = chaos_records)))

let suite =
  [
    Alcotest.test_case "io_retry transient then success" `Quick
      test_io_retry_transient_then_success;
    Alcotest.test_case "io_retry gives up" `Quick test_io_retry_gives_up;
    Alcotest.test_case "io_retry permanent immediate" `Quick
      test_io_retry_permanent_is_immediate;
    Alcotest.test_case "durable replace atomic" `Quick
      test_durable_replace_atomic;
    Alcotest.test_case "durable replace failure leaves old" `Quick
      test_durable_replace_failure_leaves_old;
    Alcotest.test_case "durable replace retries transient" `Quick
      test_durable_replace_retries_transient;
    Alcotest.test_case "fsck clean all formats" `Quick
      test_fsck_clean_all_formats;
    Alcotest.test_case "fsck column flip and repair" `Quick
      test_fsck_column_flip_and_repair;
    Alcotest.test_case "fsck header flip rewrites empty" `Quick
      test_fsck_header_flip_rewrites_empty;
    Alcotest.test_case "fsck truncation keeps sealed prefix" `Quick
      test_fsck_truncation_keeps_sealed_prefix;
    Alcotest.test_case "fsck retired formats are unknown" `Quick
      test_fsck_retired_formats_unknown;
    Alcotest.test_case "fsck text bad line" `Quick test_fsck_text_bad_line;
    Alcotest.test_case "fsck orphan tmp and unknown" `Quick
      test_fsck_orphan_tmp_and_unknown;
    Alcotest.test_case "fsck exit codes" `Quick test_fsck_exit_codes;
    Alcotest.test_case "chaos sigkill salvage" `Quick
      test_chaos_sigkill_salvage;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_salvage_prefix_on_truncation; prop_salvage_prefix_on_bitflip ]
