(* Tests for Dfs_analysis on hand-built miniature traces with hand-computed
   answers. *)

open Dfs_analysis
module Record = Dfs_trace.Record
module Ids = Dfs_trace.Ids

(* analyses consume dense arrays; tests hand-build traces as lists *)
let bat = Dfs_trace.Record_batch.of_list

let mk ?(time = 0.0) ?(client = 0) ?(user = 0) ?(pid = 0) ?(migrated = false)
    ?(file = 0) kind =
  {
    Record.time;
    server = Ids.Server.of_int 0;
    client = Ids.Client.of_int client;
    user = Ids.User.of_int user;
    pid = Ids.Process.of_int pid;
    migrated;
    file = Ids.File.of_int file;
    kind;
  }

let op ?time ?client ?user ?pid ?migrated ?file ?(mode = Record.Read_only)
    ?(created = false) ?(is_dir = false) ?(size = 0) ?(start_pos = 0) () =
  mk ?time ?client ?user ?pid ?migrated ?file
    (Record.Open { mode; created; is_dir; size; start_pos })

let cl ?time ?client ?user ?pid ?migrated ?file ?(size = 0) ?(final_pos = 0)
    ?(bytes_read = 0) ?(bytes_written = 0) () =
  mk ?time ?client ?user ?pid ?migrated ?file
    (Record.Close { size; final_pos; bytes_read; bytes_written })

let seek ?time ?client ?user ?pid ?migrated ?file ~before ~after () =
  mk ?time ?client ?user ?pid ?migrated ?file
    (Record.Reposition { pos_before = before; pos_after = after })

(* A whole-file read access of [size] bytes on [file]. *)
let whole_read ?(t = 0.0) ?(dt = 1.0) ?client ?user ?pid ?migrated ~file ~size () =
  [
    op ~time:t ?client ?user ?pid ?migrated ~file ~mode:Record.Read_only ~size ();
    cl ~time:(t +. dt) ?client ?user ?pid ?migrated ~file ~size ~final_pos:size
      ~bytes_read:size ();
  ]

let whole_write ?(t = 0.0) ?(dt = 1.0) ?client ?user ?pid ?migrated ~file ~size () =
  [
    op ~time:t ?client ?user ?pid ?migrated ~file ~mode:Record.Write_only
      ~size:0 ();
    cl ~time:(t +. dt) ?client ?user ?pid ?migrated ~file ~size ~final_pos:size
      ~bytes_written:size ();
  ]

(* -- session reconstruction --------------------------------------------------- *)

let test_session_whole_file_read () =
  let trace = whole_read ~t:1.0 ~dt:0.5 ~file:1 ~size:1000 () in
  match Session.of_batch (bat trace) with
  | [ a ] ->
    Alcotest.(check int) "bytes read" 1000 a.a_bytes_read;
    Alcotest.(check (list int)) "one run" [ 1000 ] a.a_runs;
    Alcotest.(check (float 1e-9)) "duration" 0.5 (Session.duration a);
    Alcotest.(check bool) "usage RO" true (Session.usage a = Some Session.Read_only);
    Alcotest.(check bool) "whole file" true
      (Session.sequentiality a = Session.Whole_file)
  | l -> Alcotest.failf "expected 1 access, got %d" (List.length l)

let test_session_partial_read_other_sequential () =
  let trace =
    [
      op ~time:0.0 ~file:1 ~mode:Record.Read_only ~size:1000 ();
      cl ~time:1.0 ~file:1 ~size:1000 ~final_pos:400 ~bytes_read:400 ();
    ]
  in
  match Session.of_batch (bat trace) with
  | [ a ] ->
    Alcotest.(check (list int)) "partial run" [ 400 ] a.a_runs;
    Alcotest.(check bool) "other sequential" true
      (Session.sequentiality a = Session.Other_sequential)
  | _ -> Alcotest.fail "one access"

let test_session_random_access_runs () =
  (* read 100 at 0, seek to 500, read 200, seek to 50, read 10, close *)
  let trace =
    [
      op ~time:0.0 ~file:1 ~mode:Record.Read_only ~size:1000 ();
      seek ~time:0.1 ~file:1 ~before:100 ~after:500 ();
      seek ~time:0.2 ~file:1 ~before:700 ~after:50 ();
      cl ~time:0.3 ~file:1 ~size:1000 ~final_pos:60 ~bytes_read:310 ();
    ]
  in
  match Session.of_batch (bat trace) with
  | [ a ] ->
    Alcotest.(check (list int)) "three runs" [ 100; 200; 10 ] a.a_runs;
    Alcotest.(check int) "two seeks" 2 a.a_repositions;
    Alcotest.(check bool) "random" true (Session.sequentiality a = Session.Random)
  | _ -> Alcotest.fail "one access"

let test_session_seek_no_transfer_no_run () =
  (* an immediate seek before any transfer must not create an empty run *)
  let trace =
    [
      op ~time:0.0 ~file:1 ~mode:Record.Read_only ~size:1000 ();
      seek ~time:0.1 ~file:1 ~before:0 ~after:900 ();
      cl ~time:0.2 ~file:1 ~size:1000 ~final_pos:1000 ~bytes_read:100 ();
    ]
  in
  match Session.of_batch (bat trace) with
  | [ a ] ->
    Alcotest.(check (list int)) "single tail run" [ 100 ] a.a_runs;
    (* one sequential run but not the whole file (it has a reposition) *)
    Alcotest.(check bool) "other sequential" true
      (Session.sequentiality a = Session.Other_sequential)
  | _ -> Alcotest.fail "one access"

let test_session_append_run () =
  let trace =
    [
      op ~time:0.0 ~file:1 ~mode:Record.Write_only ~size:500 ();
      seek ~time:0.1 ~file:1 ~before:0 ~after:500 ();
      cl ~time:0.2 ~file:1 ~size:600 ~final_pos:600 ~bytes_written:100 ();
    ]
  in
  match Session.of_batch (bat trace) with
  | [ a ] ->
    Alcotest.(check (list int)) "append run" [ 100 ] a.a_runs;
    Alcotest.(check bool) "write-only" true
      (Session.usage a = Some Session.Write_only)
  | _ -> Alcotest.fail "one access"

let test_session_read_write_usage () =
  let trace =
    [
      op ~time:0.0 ~file:1 ~mode:Record.Read_write ~size:100 ();
      cl ~time:1.0 ~file:1 ~size:100 ~final_pos:50 ~bytes_read:100
        ~bytes_written:50 ();
    ]
  in
  match Session.of_batch (bat trace) with
  | [ a ] ->
    Alcotest.(check bool) "RW usage" true (Session.usage a = Some Session.Read_write)
  | _ -> Alcotest.fail "one access"

let test_session_unmatched_close_dropped () =
  let trace = [ cl ~time:1.0 ~file:9 ~size:10 ~bytes_read:10 () ] in
  Alcotest.(check int) "dropped" 0 (List.length (Session.of_batch (bat trace)))

let test_session_interleaved_handles () =
  (* two processes on the same client use the same file concurrently *)
  let trace =
    [
      op ~time:0.0 ~pid:1 ~file:1 ~mode:Record.Read_only ~size:100 ();
      op ~time:0.1 ~pid:2 ~file:1 ~mode:Record.Read_only ~size:100 ();
      cl ~time:0.2 ~pid:1 ~file:1 ~size:100 ~final_pos:100 ~bytes_read:100 ();
      cl ~time:0.3 ~pid:2 ~file:1 ~size:100 ~final_pos:50 ~bytes_read:50 ();
    ]
  in
  let accesses = Session.of_batch (bat trace) in
  Alcotest.(check int) "two accesses" 2 (List.length accesses);
  let reads = List.map (fun (a : Session.access) -> a.a_bytes_read) accesses in
  Alcotest.(check (list int)) "per-handle totals" [ 100; 50 ] reads

let test_session_zero_byte_access () =
  let trace =
    [
      op ~time:0.0 ~file:1 ~mode:Record.Read_only ~size:100 ();
      cl ~time:0.1 ~file:1 ~size:100 ~final_pos:0 ();
    ]
  in
  match Session.of_batch (bat trace) with
  | [ a ] ->
    Alcotest.(check bool) "no usage" true (Session.usage a = None);
    Alcotest.(check (list int)) "no runs" [] a.a_runs
  | _ -> Alcotest.fail "one access"

(* -- trace stats (Table 1) ------------------------------------------------------ *)

let test_trace_stats () =
  let trace =
    whole_read ~t:0.0 ~user:1 ~file:1 ~size:1_048_576 ()
    @ whole_write ~t:2.0 ~user:2 ~file:2 ~size:524_288 ()
    @ [
        mk ~time:3.0 ~user:1 ~file:3 (Record.Dir_read { bytes = 2_097_152 });
        mk ~time:4.0 ~user:3 ~migrated:true ~file:4
          (Record.Delete { size = 10; is_dir = false });
        mk ~time:5.0 ~user:1 ~file:5 (Record.Truncate { old_size = 99 });
        mk ~time:6.0 ~user:2 ~file:6 (Record.Shared_read { offset = 0; length = 5 });
        mk ~time:7.0 ~user:2 ~file:6 (Record.Shared_write { offset = 0; length = 5 });
        seek ~time:8.0 ~user:1 ~file:7 ~before:0 ~after:5 ();
      ]
  in
  let s = Trace_stats.of_batch (bat trace) in
  Alcotest.(check int) "users" 3 s.different_users;
  Alcotest.(check int) "migration users" 1 s.users_of_migration;
  Alcotest.(check (float 0.01)) "MB read" 1.0 s.mbytes_read_files;
  Alcotest.(check (float 0.01)) "MB written" 0.5 s.mbytes_written_files;
  Alcotest.(check (float 0.01)) "MB dirs" 2.0 s.mbytes_read_dirs;
  Alcotest.(check int) "opens" 2 s.open_events;
  Alcotest.(check int) "closes" 2 s.close_events;
  Alcotest.(check int) "seeks" 1 s.reposition_events;
  Alcotest.(check int) "deletes" 1 s.delete_events;
  Alcotest.(check int) "truncates" 1 s.truncate_events;
  Alcotest.(check int) "shared reads" 1 s.shared_read_events;
  Alcotest.(check int) "shared writes" 1 s.shared_write_events

(* -- activity (Table 2) ----------------------------------------------------------- *)

let test_activity_basic () =
  (* two 10-second intervals; user 1 transfers 1024 B in the first, user 2
     is active (open only, no bytes) in the second *)
  let trace =
    whole_read ~t:0.0 ~dt:1.0 ~user:1 ~file:1 ~size:1024 ()
    @ [
        op ~time:12.0 ~user:2 ~file:2 ~mode:Record.Read_only ~size:10 ();
        cl ~time:19.0 ~user:2 ~file:2 ~size:10 ~final_pos:0 ();
      ]
  in
  let r = Activity.analyze ~interval:10.0 (bat trace) in
  Alcotest.(check int) "max active" 1 r.max_active_users;
  Alcotest.(check (float 1e-6)) "avg active (2 intervals)" 1.0 r.avg_active_users;
  (* user 1's interval: 1024 B over 10 s = 0.1 KB/s; user 2's: 0 *)
  Alcotest.(check (float 1e-6)) "avg throughput" 0.05 r.avg_user_throughput;
  Alcotest.(check (float 1e-6)) "peak user" 0.1 r.peak_user_throughput;
  Alcotest.(check (float 1e-6)) "peak total" 0.1 r.peak_total_throughput

let test_activity_migrated_filter () =
  let trace =
    whole_read ~t:0.0 ~user:1 ~file:1 ~size:2048 ()
    @ whole_read ~t:1.0 ~user:2 ~migrated:true ~pid:9 ~file:2 ~size:1024 ()
  in
  let all = Activity.analyze ~interval:10.0 (bat trace) in
  let mig = Activity.analyze ~migrated_only:true ~interval:10.0 (bat trace) in
  Alcotest.(check int) "two active users" 2 all.max_active_users;
  Alcotest.(check int) "one migrated user" 1 mig.max_active_users;
  Alcotest.(check (float 1e-6)) "migrated bytes only" 0.1 mig.peak_user_throughput

let test_activity_shared_and_dir_bytes_counted () =
  let trace =
    [
      mk ~time:0.0 ~user:1 ~file:1 (Record.Shared_read { offset = 0; length = 5120 });
      mk ~time:1.0 ~user:1 ~file:2 (Record.Dir_read { bytes = 5120 });
    ]
  in
  let r = Activity.analyze ~interval:10.0 (bat trace) in
  Alcotest.(check (float 1e-6)) "10 KB over 10 s" 1.0 r.peak_user_throughput

let test_activity_empty () =
  let r = Activity.analyze ~interval:10.0 (bat []) in
  Alcotest.(check int) "no users" 0 r.max_active_users;
  Alcotest.(check (float 1e-9)) "no tput" 0.0 r.peak_total_throughput

(* -- access patterns (Table 3) ------------------------------------------------------ *)

let test_access_patterns_classification () =
  let trace =
    (* 2 whole-file reads, 1 whole-file write, 1 random read *)
    whole_read ~t:0.0 ~pid:1 ~file:1 ~size:100 ()
    @ whole_read ~t:1.0 ~pid:2 ~file:2 ~size:300 ()
    @ whole_write ~t:2.0 ~pid:3 ~file:3 ~size:600 ()
    @ [
        op ~time:3.0 ~pid:4 ~file:4 ~mode:Record.Read_only ~size:1000 ();
        seek ~time:3.1 ~pid:4 ~file:4 ~before:50 ~after:500 ();
        cl ~time:3.2 ~pid:4 ~file:4 ~size:1000 ~final_pos:550 ~bytes_read:100 ();
      ]
  in
  let t = Access_patterns.analyze (Session.of_batch (bat trace)) in
  Alcotest.(check int) "3 RO accesses" 3 t.read_only.total.accesses;
  Alcotest.(check int) "RO bytes" 500 t.read_only.total.bytes;
  Alcotest.(check int) "1 WO access" 1 t.write_only.total.accesses;
  Alcotest.(check int) "0 RW" 0 t.read_write.total.accesses;
  Alcotest.(check int) "2 RO whole" 2 t.read_only.whole_file.accesses;
  Alcotest.(check int) "1 RO random" 1 t.read_only.random.accesses;
  Alcotest.(check int) "WO whole" 1 t.write_only.whole_file.accesses;
  Alcotest.(check (float 1e-6)) "RO % accesses" 75.0
    (Access_patterns.pct_accesses t t.read_only);
  Alcotest.(check (float 1e-6)) "WO % bytes"
    (100.0 *. 600.0 /. 1100.0)
    (Access_patterns.pct_bytes t t.write_only);
  Alcotest.(check (float 1e-6)) "RO whole by accesses"
    (100.0 *. 2.0 /. 3.0)
    (Access_patterns.seq_pct_accesses t.read_only Session.Whole_file)

let test_access_patterns_dirs_excluded () =
  let trace =
    [
      op ~time:0.0 ~file:1 ~is_dir:true ~mode:Record.Read_only ~size:64 ();
      cl ~time:1.0 ~file:1 ~size:64 ~final_pos:64 ~bytes_read:64 ();
    ]
  in
  let t = Access_patterns.analyze (Session.of_batch (bat trace)) in
  Alcotest.(check int) "dir access ignored" 0 t.grand_total.accesses

(* -- figures -------------------------------------------------------------------------- *)

(* Runs of 1 KB and 9 KB: the first sits on Figure 1's first point,
   the second between it and 10 KB. *)
let test_run_length_cdfs () =
  let trace =
    whole_read ~t:0.0 ~pid:1 ~file:1 ~size:1024 ()
    @ whole_read ~t:1.0 ~pid:2 ~file:2 ~size:9216 ()
  in
  let f = Run_length.analyze (Session.of_batch (bat trace)) in
  Alcotest.(check int) "two runs" 2 (Dfs_util.Cdf.count f.by_runs);
  Alcotest.(check (float 1e-6)) "half of runs <= 1 KB" 0.5
    (Dfs_util.Cdf.fraction_below f.by_runs 1024.0);
  Alcotest.(check (float 1e-6)) "10% of bytes in runs <= 1 KB" 0.1
    (Dfs_util.Cdf.fraction_below f.by_bytes 1024.0);
  Alcotest.(check (float 1e-6)) "all runs under 10 KB" 1.0
    (Dfs_util.Cdf.fraction_below f.by_runs Run_length.short_run)

let test_file_size_cdfs () =
  let trace =
    whole_read ~t:0.0 ~pid:1 ~file:1 ~size:1024 ()
    @ whole_read ~t:1.0 ~pid:2 ~file:2 ~size:9216 ()
  in
  let f = File_size.analyze (Session.of_batch (bat trace)) in
  Alcotest.(check (float 1e-6)) "half of accesses small" 0.5
    (Dfs_util.Cdf.fraction_below f.by_files 1024.0);
  Alcotest.(check (float 1e-6)) "10% of bytes from small file" 0.1
    (Dfs_util.Cdf.fraction_below f.by_bytes 1024.0);
  Alcotest.(check (float 1e-6)) "no bytes from files over 1 MB" 1.0
    (Dfs_util.Cdf.fraction_below f.by_bytes File_size.large_file)

let test_open_time_cdf () =
  let trace =
    whole_read ~t:0.0 ~dt:0.1 ~pid:1 ~file:1 ~size:10 ()
    @ whole_read ~t:1.0 ~dt:2.0 ~pid:2 ~file:2 ~size:10 ()
  in
  let f = Open_time.analyze (Session.of_batch (bat trace)) in
  Alcotest.(check (float 1e-6)) "half under 0.25s" 0.5
    (Open_time.fraction_under f 0.25);
  Alcotest.(check (float 1e-6)) "all under 10s" 1.0 (Open_time.fraction_under f 10.0)

let test_lifetime_whole_file () =
  (* file written over [0,180], deleted at t=190: oldest byte age 190,
     newest 10 -> per-file lifetime 100, on a point of Figure 4 and
     clear of both ages *)
  let trace =
    whole_write ~t:0.0 ~dt:180.0 ~file:1 ~size:800 ()
    @ [ mk ~time:190.0 ~file:1 (Record.Delete { size = 800; is_dir = false }) ]
  in
  let f = Lifetime.analyze (bat trace) in
  Alcotest.(check int) "one aged death" 1 f.deaths_aged;
  Alcotest.(check (float 1e-6)) "lifetime over 30" 0.0
    (Lifetime.fraction_files_under f 30.0);
  Alcotest.(check (float 1e-6)) "lifetime at most 100" 1.0
    (Lifetime.fraction_files_under f 100.0);
  (* per-byte ages interpolate 10..190 at the eighths' midpoints:
     21.25, 43.75, ..., 178.75 *)
  Alcotest.(check (float 1e-6)) "no byte younger than the last write" 0.0
    (Lifetime.fraction_bytes_under f 10.0);
  Alcotest.(check (float 1e-6)) "one eighth of the bytes within 30" 0.125
    (Lifetime.fraction_bytes_under f 30.0);
  Alcotest.(check (float 1e-6)) "half the bytes within 100" 0.5
    (Lifetime.fraction_bytes_under f 100.0);
  Alcotest.(check (float 1e-6)) "all bytes within 300" 1.0
    (Lifetime.fraction_bytes_under f 300.0)

let test_lifetime_truncate_counts_as_death () =
  let trace =
    whole_write ~t:0.0 ~dt:1.0 ~file:1 ~size:100 ()
    @ [ mk ~time:5.0 ~file:1 (Record.Truncate { old_size = 100 }) ]
  in
  let f = Lifetime.analyze (bat trace) in
  Alcotest.(check int) "truncate aged" 1 f.deaths_aged

let test_lifetime_unknown_writes_skipped () =
  let trace = [ mk ~time:5.0 ~file:1 (Record.Delete { size = 10; is_dir = false }) ] in
  let f = Lifetime.analyze (bat trace) in
  Alcotest.(check int) "no aged deaths" 0 f.deaths_aged;
  Alcotest.(check int) "counted as unknown" 1 f.deaths_unknown

let test_lifetime_append_updates_newest () =
  (* whole write at 0..2, append at 110..111, delete at 140: oldest 140,
     newest 29 -> per-file (140+29)/2 = 84.5, in (30, 100].  An append
     that left newest alone would give 139; one that moved oldest too,
     29.5 *)
  let trace =
    whole_write ~t:0.0 ~dt:2.0 ~file:1 ~size:100 ()
    @ [
        op ~time:110.0 ~file:1 ~mode:Record.Write_only ~size:100 ();
        seek ~time:110.2 ~file:1 ~before:0 ~after:100 ();
        cl ~time:111.0 ~file:1 ~size:150 ~final_pos:150 ~bytes_written:50 ();
        mk ~time:140.0 ~file:1 (Record.Delete { size = 150; is_dir = false });
      ]
  in
  let f = Lifetime.analyze (bat trace) in
  Alcotest.(check (float 1e-6)) "avg of oldest/newest over 30" 0.0
    (Lifetime.fraction_files_under f 30.0);
  Alcotest.(check (float 1e-6)) "avg of oldest/newest at most 100" 1.0
    (Lifetime.fraction_files_under f 100.0)

(* -- cache stats ------------------------------------------------------------------------- *)

let mk_sample ~t ~client ~bytes ~active =
  {
    Dfs_sim.Counters.time = t;
    client = Ids.Client.of_int client;
    cache_bytes = bytes;
    cache_capacity_bytes = bytes;
    vm_pages = 0;
    active;
    rebooted = false;
  }

let test_cache_sizes_windows () =
  let cs = Dfs_sim.Counters.create () in
  (* client 0: sizes 1MB..5MB over 15 minutes (active) *)
  List.iteri
    (fun i b ->
      Dfs_sim.Counters.record cs
        (mk_sample ~t:(float_of_int i *. 60.0) ~client:0 ~bytes:(b * 1024 * 1024)
           ~active:true))
    [ 1; 2; 3; 4; 5 ];
  let r = Cache_stats.cache_sizes [ cs ] in
  Alcotest.(check (float 0.01)) "avg 3MB" 3.0 (r.avg_bytes /. 1048576.0);
  Alcotest.(check (float 0.01)) "change = 4MB" 4096.0 r.change_15min.max_kb

let test_cache_sizes_inactive_screened () =
  let cs = Dfs_sim.Counters.create () in
  List.iteri
    (fun i b ->
      Dfs_sim.Counters.record cs
        (mk_sample ~t:(float_of_int i *. 60.0) ~client:0 ~bytes:b ~active:false))
    [ 0; 1000000 ];
  let r = Cache_stats.cache_sizes [ cs ] in
  Alcotest.(check (float 1e-9)) "inactive window ignored" 0.0 r.change_15min.max_kb

(* Table 4 as it was windowed before each client's samples were grouped
   once and each window closed by index: every run's samples merged into
   one counter set, run [i] shifted by [i * 1e7] s, and each client's
   remaining samples partitioned once per window.  The oracle of the
   property below. *)
let partition_cache_sizes runs : Cache_stats.size_report =
  let module Counters = Dfs_sim.Counters in
  let merged = Counters.create () in
  List.iteri
    (fun i c ->
      List.iter
        (fun (s : Counters.sample) ->
          Counters.record merged { s with time = s.time +. (float_of_int i *. 1.0e7) })
        (Counters.samples c))
    runs;
  let window_changes samples ~window =
    let changes = ref [] in
    let rec go = function
      | [] -> ()
      | (first : Counters.sample) :: _ as batch ->
        let in_window, rest =
          List.partition
            (fun (s : Counters.sample) -> s.time < first.time +. window)
            batch
        in
        if
          List.exists (fun (s : Counters.sample) -> s.active) in_window
          && not (List.exists (fun (s : Counters.sample) -> s.rebooted) in_window)
        then begin
          let sizes =
            List.map (fun (s : Counters.sample) -> float_of_int s.cache_bytes) in_window
          in
          changes :=
            (List.fold_left Float.max neg_infinity sizes
            -. List.fold_left Float.min infinity sizes)
            :: !changes
        end;
        go rest
    in
    go samples;
    !changes
  in
  let report window : Cache_stats.change_report =
    let st = Dfs_util.Stats.create () in
    List.iter
      (fun (_, samples) -> List.iter (Dfs_util.Stats.add st) (window_changes samples ~window))
      (Counters.by_client merged);
    if Dfs_util.Stats.count st = 0 then { max_kb = 0.0; avg_kb = 0.0; sd_kb = 0.0 }
    else
      {
        max_kb = Dfs_util.Stats.max st /. 1024.0;
        avg_kb = Dfs_util.Stats.mean st /. 1024.0;
        sd_kb = Dfs_util.Stats.stddev st /. 1024.0;
      }
  in
  let sizes = Dfs_util.Stats.create () in
  List.iter
    (fun (s : Counters.sample) -> Dfs_util.Stats.add sizes (float_of_int s.cache_bytes))
    (Counters.samples merged);
  {
    avg_bytes = Dfs_util.Stats.mean sizes;
    sd_bytes = Dfs_util.Stats.stddev sizes;
    change_15min = report 900.0;
    change_60min = report 3600.0;
    samples_used = Dfs_util.Stats.count sizes;
  }

(* Runs of up to three clients (ids reused across runs) sampled on one
   60 s clock for up to 130 ticks, some with gaps, with inactive and
   rebooted ticks.  Windows start at a sample, and a run without gaps
   holds samples exactly 900 s and 3600 s after one. *)
let gen_counter_runs =
  let open QCheck.Gen in
  let sample = triple (int_bound 10_000_000) (frequencyl [ (3, true); (1, false) ]) (frequencyl [ (4, false); (1, true) ]) in
  let run =
    int_range 1 3 >>= fun clients ->
    int_range 0 130 >>= fun ticks ->
    triple (int_bound 5) bool
      (list_repeat ticks (pair (frequencyl [ (19, false); (1, true) ]) (list_repeat clients sample)))
    >|= fun (start, gaps, rows) ->
    let c = Dfs_sim.Counters.create () in
    List.iteri
      (fun tick (rebooted, per_client) ->
        List.iteri
          (fun client (bytes, active, skip) ->
            if not (gaps && skip) then
              Dfs_sim.Counters.record c
                {
                  (mk_sample ~t:(float_of_int (start + tick) *. 60.0) ~client ~bytes ~active)
                  with
                  rebooted;
                })
          per_client)
      rows;
    c
  in
  list_size (int_range 1 4) run

let change_equal (a : Cache_stats.change_report) (b : Cache_stats.change_report) =
  Float.equal a.max_kb b.max_kb && Float.equal a.avg_kb b.avg_kb && Float.equal a.sd_kb b.sd_kb

let prop_cache_sizes_match_partition =
  QCheck.Test.make ~name:"cache sizes match partition windowing" ~count:300
    ~long_factor:20
    (QCheck.make
       ~print:(fun runs ->
         String.concat "; "
           (List.map (fun c -> string_of_int (Dfs_sim.Counters.count c)) runs))
       gen_counter_runs)
    (fun runs ->
      let a = Cache_stats.cache_sizes runs and b = partition_cache_sizes runs in
      Float.equal a.avg_bytes b.avg_bytes
      && Float.equal a.sd_bytes b.sd_bytes
      && change_equal a.change_15min b.change_15min
      && change_equal a.change_60min b.change_60min
      && a.samples_used = b.samples_used)

let test_traffic_rows_percentages () =
  let t = Dfs_sim.Traffic.create () in
  Dfs_sim.Traffic.add_read t Dfs_sim.Traffic.File_data 60;
  Dfs_sim.Traffic.add_write t Dfs_sim.Traffic.File_data 20;
  Dfs_sim.Traffic.add_read t Dfs_sim.Traffic.Paging_backing 20;
  let rows = Cache_stats.traffic_rows t in
  let file =
    List.find
      (fun (r : Cache_stats.traffic_row) -> r.category = Dfs_sim.Traffic.File_data)
      rows
  in
  Alcotest.(check (float 1e-6)) "file read pct" 60.0 file.read_pct;
  Alcotest.(check (float 1e-6)) "file total pct" 80.0 file.total_pct;
  Alcotest.(check (float 1e-6)) "cacheable fraction" 0.8
    (Cache_stats.cacheable_fraction t)

let test_consistency_stats_sharing_and_recall () =
  let trace =
    [
      (* client 0 writes file 1 and closes: becomes last writer *)
      op ~time:0.0 ~client:0 ~pid:1 ~file:1 ~mode:Record.Write_only ();
      cl ~time:1.0 ~client:0 ~pid:1 ~file:1 ~size:100 ~final_pos:100
        ~bytes_written:100 ();
      (* client 1 opens: recall *)
      op ~time:2.0 ~client:1 ~pid:2 ~file:1 ~mode:Record.Read_only ~size:100 ();
      cl ~time:3.0 ~client:1 ~pid:2 ~file:1 ~size:100 ~final_pos:100
        ~bytes_read:100 ();
      (* concurrent write-sharing on file 2 *)
      op ~time:4.0 ~client:0 ~pid:3 ~file:2 ~mode:Record.Write_only ();
      op ~time:5.0 ~client:1 ~pid:4 ~file:2 ~mode:Record.Read_only ();
      cl ~time:6.0 ~client:1 ~pid:4 ~file:2 ~size:0 ~final_pos:0 ();
      cl ~time:7.0 ~client:0 ~pid:3 ~file:2 ~size:10 ~final_pos:10
        ~bytes_written:10 ();
    ]
  in
  let t = Consistency_stats.analyze (bat trace) in
  Alcotest.(check int) "file opens" 4 t.file_opens;
  Alcotest.(check int) "one recall" 1 t.recall_opens;
  Alcotest.(check int) "one sharing open" 1 t.sharing_opens;
  Alcotest.(check (float 1e-6)) "sharing pct" 25.0 (Consistency_stats.sharing_pct t)

let test_consistency_stats_same_client_no_actions () =
  let trace =
    [
      op ~time:0.0 ~client:0 ~pid:1 ~file:1 ~mode:Record.Write_only ();
      op ~time:0.5 ~client:0 ~pid:2 ~file:1 ~mode:Record.Read_only ();
      cl ~time:1.0 ~client:0 ~pid:1 ~file:1 ~size:10 ~bytes_written:10 ();
      cl ~time:1.5 ~client:0 ~pid:2 ~file:1 ~size:10 ~bytes_read:10 ();
      op ~time:2.0 ~client:0 ~pid:3 ~file:1 ~mode:Record.Read_only ~size:10 ();
      cl ~time:2.5 ~client:0 ~pid:3 ~file:1 ~size:10 ~bytes_read:10 ();
    ]
  in
  let t = Consistency_stats.analyze (bat trace) in
  Alcotest.(check int) "no sharing on one client" 0 t.sharing_opens;
  Alcotest.(check int) "no recall for own reopen" 0 t.recall_opens

(* -- paging / server stats --------------------------------------------------------- *)

let test_paging_stats_arithmetic () =
  let raw = Dfs_sim.Traffic.create () in
  (* 40 clients over 100 s; 10 pages cached + 10 pages backing = 20 pages *)
  Dfs_sim.Traffic.add_read raw Dfs_sim.Traffic.Paging_cached (10 * 4096);
  Dfs_sim.Traffic.add_write raw Dfs_sim.Traffic.Paging_backing (10 * 4096);
  let t = Paging_stats.analyze ~n_clients:40 ~duration:100.0 ~raw in
  Alcotest.(check (float 1e-6)) "KB/s" (20.0 *. 4.0 /. 100.0)
    t.paging_kb_per_sec_cluster;
  Alcotest.(check (float 1e-6)) "s per page per client"
    (100.0 /. (20.0 /. 40.0))
    t.seconds_per_page_per_client;
  Alcotest.(check (float 1e-6)) "backing share" 50.0 t.backing_share_pct;
  (* the paper's claim: a network page fetch beats a disk access *)
  Alcotest.(check bool) "network < disk" true
    (t.network_page_fetch_ms < t.disk_access_ms);
  Alcotest.(check bool) "fetch ~5-7 ms" true
    (t.network_page_fetch_ms > 3.0 && t.network_page_fetch_ms < 9.0)

let test_paging_stats_empty () =
  let raw = Dfs_sim.Traffic.create () in
  let t = Paging_stats.analyze ~n_clients:4 ~duration:10.0 ~raw in
  Alcotest.(check (float 1e-9)) "no paging" 0.0 t.paging_kb_per_sec_cluster;
  Alcotest.(check bool) "infinite gap" true
    (t.seconds_per_page_per_client = infinity)

let test_server_stats_roundtrip () =
  (* drive a tiny rig so the server cache and disk see real traffic *)
  let engine = Dfs_sim.Engine.create () in
  let rng = Dfs_util.Rng.create 4 in
  let fs = Dfs_sim.Fs_state.create ~n_servers:1 ~rng () in
  let network = Dfs_sim.Network.create () in
  let server =
    Dfs_sim.Server.create ~id:(Ids.Server.of_int 0)
      ~config:Dfs_sim.Server.default_config ~fs ~network
      ~log:(fun _ -> ())
      ()
  in
  let c =
    Dfs_sim.Client.create ~engine ~id:(Ids.Client.of_int 0) ~fs
      ~server_of:(fun _ -> server)
      ~paging_server:server ~sleep:false ()
  in
  Dfs_sim.Server.register_client server (Dfs_sim.Client.id c)
    (Dfs_sim.Client.hooks c);
  let cred =
    Dfs_sim.Cred.make ~user:(Ids.User.of_int 0) ~pid:(Ids.Process.of_int 0)
      ~client:(Dfs_sim.Client.id c) ~migrated:false
  in
  let info = Dfs_sim.Fs_state.create_file fs ~now:0.0 ~size:40960 () in
  let fd = Dfs_sim.Client.open_file c ~cred ~info ~mode:Record.Read_only ~created:false in
  ignore (Dfs_sim.Client.read c fd ~len:40960);
  Dfs_sim.Client.close c fd;
  let t = Server_stats.analyze [ server ] in
  Alcotest.(check bool) "server cache saw the fetches" true
    (t.server_read_ops >= 10);
  Alcotest.(check bool) "cold server cache missed to disk" true
    (t.disk_reads >= 1);
  Alcotest.(check bool) "hit pct within range" true
    (t.server_read_hit_pct >= 0.0 && t.server_read_hit_pct <= 100.0)

(* -- cross-validation: analysis vs live server counters -------------------------- *)

let test_consistency_replay_matches_server () =
  (* run a small scripted scenario through the real server+clients and
     check the trace replay computes the same consistency actions *)
  let engine = Dfs_sim.Engine.create () in
  let rng = Dfs_util.Rng.create 3 in
  let fs = Dfs_sim.Fs_state.create ~n_servers:1 ~rng () in
  let network = Dfs_sim.Network.create () in
  let log = ref [] in
  let server =
    Dfs_sim.Server.create ~id:(Ids.Server.of_int 0)
      ~config:Dfs_sim.Server.default_config ~fs ~network
      ~log:(fun r -> log := r :: !log)
      ()
  in
  let client i =
    Dfs_sim.Client.create ~engine ~id:(Ids.Client.of_int i) ~fs
      ~server_of:(fun _ -> server)
      ~paging_server:server ~sleep:false ()
  in
  let c0 = client 0 and c1 = client 1 in
  List.iter
    (fun c ->
      Dfs_sim.Server.register_client server (Dfs_sim.Client.id c)
        (Dfs_sim.Client.hooks c))
    [ c0; c1 ];
  let cr i c =
    Dfs_sim.Cred.make ~user:(Ids.User.of_int i) ~pid:(Ids.Process.of_int i)
      ~client:(Dfs_sim.Client.id c) ~migrated:false
  in
  let info = Dfs_sim.Fs_state.create_file fs ~now:0.0 () in
  (* writer on c0, then reader on c1 (recall), then concurrent sharing *)
  let fd = Dfs_sim.Client.open_file c0 ~cred:(cr 0 c0) ~info ~mode:Record.Write_only ~created:true in
  ignore (Dfs_sim.Client.write c0 fd ~len:5000);
  Dfs_sim.Client.close c0 fd;
  let fd1 = Dfs_sim.Client.open_file c1 ~cred:(cr 1 c1) ~info ~mode:Record.Read_only ~created:false in
  let fd0 = Dfs_sim.Client.open_file c0 ~cred:(cr 0 c0) ~info ~mode:Record.Write_only ~created:false in
  ignore (Dfs_sim.Client.write c0 fd0 ~len:10);
  Dfs_sim.Client.close c0 fd0;
  Dfs_sim.Client.close c1 fd1;
  let counters = Dfs_sim.Server.consistency server in
  let replay = Consistency_stats.analyze (bat (List.rev !log)) in
  Alcotest.(check int) "opens agree" counters.file_opens replay.file_opens;
  Alcotest.(check int) "recalls agree" counters.recalls replay.recall_opens;
  Alcotest.(check int) "sharing agrees" counters.sharing_opens
    replay.sharing_opens

(* -- the int-keyed folds against their tuple-keyed models ------------------------ *)

(* Random traces over a few ids, so that one (client, file) pair sees
   several pids, one handle nests opens, and closes, deletes and shared
   transfers land on open and unopened files alike.  The ids include 0
   and 2^31 - 1, the extremes of the packed (client, file) key. *)
let gen_fold_trace =
  let open QCheck.Gen in
  let top = Record.max_field in
  let size = oneof [ return 0; int_bound 20_000 ] in
  let kind =
    frequency
      [
        ( 5,
          map3
            (fun mode is_dir (size, start_pos) ->
              Record.Open { mode; created = false; is_dir; size; start_pos })
            (oneofl Record.[ Read_only; Write_only; Read_write ])
            (frequencyl [ (9, false); (1, true) ])
            (pair size size) );
        ( 5,
          map2
            (fun (size, final_pos) (bytes_read, bytes_written) ->
              Record.Close { size; final_pos; bytes_read; bytes_written })
            (pair size size) (pair size size) );
        ( 2,
          map2
            (fun pos_before pos_after -> Record.Reposition { pos_before; pos_after })
            size size );
        (1, map (fun size -> Record.Delete { size; is_dir = false }) size);
        (1, map (fun old_size -> Record.Truncate { old_size }) size);
        ( 2,
          map2 (fun offset length -> Record.Shared_read { offset; length }) size size );
        ( 2,
          map2 (fun offset length -> Record.Shared_write { offset; length }) size size );
      ]
  in
  let record =
    map3
      (fun (dt, client, pid) (user, file, migrated) kind ->
        (dt, client, pid, user, file, migrated, kind))
      (triple
         (oneofl [ 0.0; 0.5; 1.0; 2.5; 4.0; 30.0; 75.0 ])
         (oneofl [ 0; 1; top ])
         (oneofl [ 0; 1; top ]))
      (triple (oneofl [ 0; 1; top ]) (oneofl [ 0; 1; 2; top ]) bool)
      kind
  in
  list_size (int_range 0 150) record
  |> map (fun steps ->
         let now = ref 0.0 in
         List.map
           (fun (dt, client, pid, user, file, migrated, kind) ->
             now := !now +. dt;
             mk ~time:!now ~client ~pid ~user ~file ~migrated kind)
           steps)

let polling_report_equal (a : Dfs_consistency.Polling.report)
    (b : Dfs_consistency.Polling.report) =
  let Dfs_consistency.Polling.{ affected_user_ids; seen_user_ids; _ } = a in
  { a with affected_user_ids = b.affected_user_ids; seen_user_ids = b.seen_user_ids }
  = b
  && Ids.User.Set.equal affected_user_ids b.affected_user_ids
  && Ids.User.Set.equal seen_user_ids b.seen_user_ids

let lifetime_equal (a : Lifetime.t) (b : Lifetime.t) =
  Dfs_util.Cdf.equal a.by_files b.by_files
  && Dfs_util.Cdf.equal a.by_bytes b.by_bytes
  && a.deaths_aged = b.deaths_aged
  && a.deaths_unknown = b.deaths_unknown

(* The same records in a seeded random order, for Lifetime's path that
   sorts an out-of-order trace's events. *)
let shuffle records =
  let st = Random.State.make [| List.length records |] in
  List.map snd
    (List.sort compare (List.map (fun r -> (Random.State.bits st, r)) records))

(* The merged folds (both polling intervals, Table 10's per-file state)
   run only inside [Fused], so the fused report is compared too. *)
let prop_folds_match_model =
  QCheck.Test.make ~name:"folds match tuple-keyed models" ~count:500
    ~long_factor:20
    (QCheck.make
       ~print:(fun rs -> String.concat "\n" (List.map Dfs_trace.Codec.encode rs))
       gen_fold_trace)
    (fun records ->
      let b = bat records and shuffled = bat (shuffle records) in
      let fused = Fused.analyze b in
      let polling interval fused =
        let model = Fold_model.polling ~interval b in
        polling_report_equal (Dfs_consistency.Polling.simulate ~interval b) model
        && polling_report_equal fused model
      in
      let lifetime b =
        let model = Fold_model.lifetime b in
        lifetime_equal (Lifetime.analyze b) model
        && lifetime_equal (Fused.analyze b).lifetime model
      in
      polling 60.0 fused.polling_60s
      && polling 3.0 fused.polling_3s
      && Consistency_stats.analyze b = Fold_model.consistency b
      && fused.consistency = Fold_model.consistency b
      && lifetime b && lifetime shuffled
      && Session.of_batch b = Fold_model.sessions b
      && Dfs_consistency.Shared_events.extract b = Fold_model.shared_events b)

let suite =
  [
    ("session whole-file read", `Quick, test_session_whole_file_read);
    ("session partial read", `Quick, test_session_partial_read_other_sequential);
    ("session random access runs", `Quick, test_session_random_access_runs);
    ("session seek without transfer", `Quick, test_session_seek_no_transfer_no_run);
    ("session append run", `Quick, test_session_append_run);
    ("session read/write usage", `Quick, test_session_read_write_usage);
    ("session unmatched close dropped", `Quick, test_session_unmatched_close_dropped);
    ("session interleaved handles", `Quick, test_session_interleaved_handles);
    ("session zero-byte access", `Quick, test_session_zero_byte_access);
    ("trace stats", `Quick, test_trace_stats);
    ("activity basic", `Quick, test_activity_basic);
    ("activity migrated filter", `Quick, test_activity_migrated_filter);
    ("activity shared+dir bytes", `Quick, test_activity_shared_and_dir_bytes_counted);
    ("activity empty", `Quick, test_activity_empty);
    ("access patterns classification", `Quick, test_access_patterns_classification);
    ("access patterns dirs excluded", `Quick, test_access_patterns_dirs_excluded);
    ("run length CDFs", `Quick, test_run_length_cdfs);
    ("file size CDFs", `Quick, test_file_size_cdfs);
    ("open time CDF", `Quick, test_open_time_cdf);
    ("lifetime whole file", `Quick, test_lifetime_whole_file);
    ("lifetime truncate", `Quick, test_lifetime_truncate_counts_as_death);
    ("lifetime unknown writes skipped", `Quick, test_lifetime_unknown_writes_skipped);
    ("lifetime append updates newest", `Quick, test_lifetime_append_updates_newest);
    ("cache sizes windows", `Quick, test_cache_sizes_windows);
    ("cache sizes screening", `Quick, test_cache_sizes_inactive_screened);
    ("traffic rows percentages", `Quick, test_traffic_rows_percentages);
    ("consistency stats sharing/recall", `Quick, test_consistency_stats_sharing_and_recall);
    ("consistency stats same-client", `Quick, test_consistency_stats_same_client_no_actions);
    ("consistency replay matches server", `Quick, test_consistency_replay_matches_server);
    ("paging stats arithmetic", `Quick, test_paging_stats_arithmetic);
    ("paging stats empty", `Quick, test_paging_stats_empty);
    ("server stats roundtrip", `Quick, test_server_stats_roundtrip);
    QCheck_alcotest.to_alcotest prop_folds_match_model;
    QCheck_alcotest.to_alcotest prop_cache_sizes_match_partition;
  ]
