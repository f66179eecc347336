(* The domain pool, the sharded metrics registry, and the end-to-end
   determinism guarantee: a parallel dataset must be byte-identical to a
   sequential one. *)

module Pool = Dfs_util.Pool
module Metrics = Dfs_obs.Metrics

(* -- pool semantics ----------------------------------------------------------- *)

let test_map_preserves_order () =
  let pool = Pool.create ~jobs:4 () in
  let xs = List.init 50 Fun.id in
  let ys = Pool.map pool (fun x -> x * x) xs in
  Alcotest.(check (list int)) "squares in input order"
    (List.map (fun x -> x * x) xs)
    ys

let test_map_matches_sequential () =
  let xs = List.init 37 (fun i -> i * 3) in
  let f x = (x * 7) mod 13 in
  let seq = Pool.map (Pool.create ~jobs:1 ()) f xs in
  let par = Pool.map (Pool.create ~jobs:4 ()) f xs in
  Alcotest.(check (list int)) "jobs=4 equals jobs=1" seq par

let test_map_empty_and_singleton () =
  let pool = Pool.create ~jobs:4 () in
  Alcotest.(check (list int)) "empty" [] (Pool.map pool (fun x -> x) []);
  Alcotest.(check (list int)) "singleton" [ 9 ] (Pool.map pool (fun x -> x * 3) [ 3 ])

exception Boom of int

let test_exception_propagates_earliest () =
  let pool = Pool.create ~jobs:4 () in
  (* several tasks raise; the earliest input's exception must win,
     deterministically, however the domains interleave *)
  let got =
    try
      ignore
        (Pool.map pool
           (fun x -> if x mod 3 = 0 then raise (Boom x) else x)
           [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]);
      None
    with Boom n -> Some n
  in
  Alcotest.(check (option int)) "earliest failing input" (Some 3) got

(* One worker claims tasks in order and stops at the first failure, so
   the tasks after it never run. *)
let test_failure_stops_claiming () =
  let ran = ref [] in
  let got =
    try
      ignore
        (Pool.map (Pool.create ~jobs:1 ())
           (fun x ->
             ran := x :: !ran;
             if x = 3 then raise (Boom x) else x)
           [ 1; 2; 3; 4; 5 ]);
      None
    with Boom n -> Some n
  in
  Alcotest.(check (option int)) "failing input raised" (Some 3) got;
  Alcotest.(check (list int)) "later tasks did not run" [ 1; 2; 3 ]
    (List.rev !ran)

let test_nested_use_rejected () =
  List.iter
    (fun jobs ->
      let pool = Pool.create ~jobs () in
      let nested_failed =
        Pool.map pool
          (fun () ->
            match Pool.map pool (fun x -> x) [ 1 ] with
            | _ -> false
            | exception Invalid_argument _ -> true)
          [ (); () ]
      in
      Alcotest.(check (list bool))
        (Printf.sprintf "jobs %d: in a pool task, nested map rejected" jobs)
        [ true; true ] nested_failed;
      Alcotest.(check (list int))
        (Printf.sprintf "jobs %d: top level again after the map" jobs)
        [ 1 ]
        (Pool.map pool (fun x -> x) [ 1 ]))
    [ 1; 2 ]

let test_jobs_clamped () =
  Alcotest.(check int) "jobs >= 1" 1 (Pool.jobs (Pool.create ~jobs:0 ()))

(* -- sharded metrics ---------------------------------------------------------- *)

let test_counter_shards_sum_across_domains () =
  let reg = Metrics.create () in
  let c = Metrics.counter ~registry:reg "pool.test.counter" in
  let n_domains = 4 and per_domain = 10_000 in
  let domains =
    List.init n_domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Metrics.incr c
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "no lost updates" (n_domains * per_domain)
    (Metrics.value c)

let test_histogram_shards_merge_across_domains () =
  let reg = Metrics.create () in
  let h = Metrics.histogram ~registry:reg "pool.test.hist" in
  let n_domains = 4 and per_domain = 1_000 in
  let domains =
    List.init n_domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Metrics.observe h (float_of_int ((d * per_domain) + i))
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "merged count" (n_domains * per_domain)
    (Metrics.hist_count h);
  Alcotest.(check (float 1e-6)) "merged min" 1.0 (Metrics.hist_min h);
  Alcotest.(check (float 1e-6)) "merged max"
    (float_of_int (n_domains * per_domain))
    (Metrics.hist_max h)

let test_counter_visible_from_spawning_domain () =
  let reg = Metrics.create () in
  let c = Metrics.counter ~registry:reg "pool.test.mixed" in
  Metrics.incr c;
  Domain.join (Domain.spawn (fun () -> Metrics.add c 5));
  Metrics.incr c;
  Alcotest.(check int) "main shard + worker shard" 7 (Metrics.value c)

(* -- parallel-vs-sequential determinism --------------------------------------- *)

(* Two presets at a small scale; the merged traces and the Table 1
   statistics must be structurally identical whatever DFS_JOBS is. *)
let test_dataset_deterministic_across_jobs () =
  let generate jobs =
    Dfs_core.Dataset.generate ~scale:0.004 ~traces:[ 1; 2 ] ~jobs ()
  in
  let seq = generate 1 and par = generate 4 in
  List.iter2
    (fun (a : Dfs_core.Dataset.run) (b : Dfs_core.Dataset.run) ->
      Alcotest.(check string) "preset order" a.preset.name b.preset.name;
      let ba = Dfs_trace.Sink.to_batch a.trace
      and bb = Dfs_trace.Sink.to_batch b.trace in
      Alcotest.(check int) "trace length"
        (Dfs_trace.Record_batch.length ba)
        (Dfs_trace.Record_batch.length bb);
      Alcotest.(check bool) "identical merged traces" true
        (Dfs_trace.Record_batch.equal ba bb);
      let sa = Dfs_analysis.Trace_stats.of_batch ba in
      let sb = Dfs_analysis.Trace_stats.of_batch bb in
      Alcotest.(check bool) "identical trace stats" true (sa = sb))
    seq.runs par.runs

module A = Dfs_analysis
module C = Dfs_consistency
module Polling = C.Polling

(* [compare], not [=]: a report's float fields compare equal when both
   are nan. *)
let same a b = compare a b = 0

let polling_equal (a : Polling.report) (b : Polling.report) =
  let {
    Polling.interval;
    duration_hours;
    errors;
    errors_per_hour;
    users_seen;
    users_affected;
    file_opens;
    opens_with_error;
    migrated_opens;
    migrated_opens_with_error;
    affected_user_ids;
    seen_user_ids;
  } =
    a
  in
  same
    ( interval,
      duration_hours,
      errors,
      errors_per_hour,
      users_seen,
      users_affected,
      (file_opens, opens_with_error, migrated_opens, migrated_opens_with_error) )
    ( b.interval,
      b.duration_hours,
      b.errors,
      b.errors_per_hour,
      b.users_seen,
      b.users_affected,
      (b.file_opens, b.opens_with_error, b.migrated_opens, b.migrated_opens_with_error) )
  && Dfs_trace.Ids.User.Set.equal affected_user_ids b.affected_user_ids
  && Dfs_trace.Ids.User.Set.equal seen_user_ids b.seen_user_ids

(* Every field of two fused results.  A CDF's arrays carry spare
   capacity and a cached sorted view, so CDFs compare by their samples
   ([Cdf.equal]); the record patterns name every field, so a field added
   to any of these types fails to compile here until it is compared. *)
let fused_equal (a : A.Fused.t) (b : A.Fused.t) =
  let cdf = Dfs_util.Cdf.equal in
  let {
    A.Fused.stats;
    file_size = { by_files = fs_files; by_bytes = fs_bytes };
    open_time = { by_opens };
    run_length = { by_runs; by_bytes = rl_bytes };
    access_patterns;
    lifetime = { by_files = lt_files; by_bytes = lt_bytes; deaths_aged; deaths_unknown };
    activity_10min;
    activity_10min_migrated;
    activity_10s;
    activity_10s_migrated;
    consistency;
    polling_60s;
    polling_3s;
    overhead;
  } =
    a
  in
  same stats b.stats
  && cdf fs_files b.file_size.by_files
  && cdf fs_bytes b.file_size.by_bytes
  && cdf by_opens b.open_time.by_opens
  && cdf by_runs b.run_length.by_runs
  && cdf rl_bytes b.run_length.by_bytes
  && same access_patterns b.access_patterns
  && cdf lt_files b.lifetime.by_files
  && cdf lt_bytes b.lifetime.by_bytes
  && deaths_aged = b.lifetime.deaths_aged
  && deaths_unknown = b.lifetime.deaths_unknown
  && same activity_10min b.activity_10min
  && same activity_10min_migrated b.activity_10min_migrated
  && same activity_10s b.activity_10s
  && same activity_10s_migrated b.activity_10s_migrated
  && same consistency b.consistency
  && polling_equal polling_60s b.polling_60s
  && polling_equal polling_3s b.polling_3s
  && same overhead b.overhead

(* [Dataset.fused] forced inside a pool task, where a nested [Pool.map]
   would be rejected, equals the same pass at the top level. *)
let test_fused_inside_task_equals_top_level () =
  let generate () =
    Dfs_core.Dataset.generate ~scale:0.004 ~traces:[ 1; 2 ] ~jobs:4 ()
  in
  let top = generate () and inner = generate () in
  let in_task =
    Pool.map (Pool.create ~jobs:2 ()) Dfs_core.Dataset.fused inner.runs
  in
  List.iter2
    (fun (run : Dfs_core.Dataset.run) f ->
      Alcotest.(check bool)
        (run.preset.name ^ ": fused in a task equals fused at top level")
        true
        (fused_equal (Dfs_core.Dataset.fused run) f))
    top.runs in_task

(* Every field of the fused pass equals its standalone analysis over the
   whole trace.  The record pattern names every field, so a field added
   to [Fused.t] fails to compile here until it has an oracle. *)
let test_fused_folds_equal_standalone () =
  (* trace 8 is the one with write-sharing at this scale (Table 12) *)
  let ds =
    Dfs_core.Dataset.generate ~scale:0.004 ~traces:[ 1; 2; 8 ] ~jobs:1 ()
  in
  let aged = ref 0 and shared = ref 0 in
  List.iter
    (fun (run : Dfs_core.Dataset.run) ->
      let batch = Dfs_trace.Sink.to_batch run.trace in
      let {
        A.Fused.stats;
        file_size;
        open_time;
        run_length;
        access_patterns;
        lifetime;
        activity_10min;
        activity_10min_migrated;
        activity_10s;
        activity_10s_migrated;
        consistency;
        polling_60s;
        polling_3s;
        overhead;
      } =
        Dfs_core.Dataset.fused run
      in
      let check what ok =
        Alcotest.(check bool) (run.preset.name ^ ": " ^ what) true ok
      in
      let cdf = Dfs_util.Cdf.equal in
      let activity ?migrated_only interval =
        A.Activity.analyze ?migrated_only ~interval batch
      in
      let oracle = A.Session.of_batch batch in
      check "trace stats" (same stats (A.Trace_stats.of_batch batch));
      let fs = A.File_size.analyze oracle in
      check "file size by files" (cdf file_size.by_files fs.by_files);
      check "file size by bytes" (cdf file_size.by_bytes fs.by_bytes);
      check "open time"
        (cdf open_time.by_opens (A.Open_time.analyze oracle).by_opens);
      let rl = A.Run_length.analyze oracle in
      check "run length by runs" (cdf run_length.by_runs rl.by_runs);
      check "run length by bytes" (cdf run_length.by_bytes rl.by_bytes);
      check "access patterns"
        (same access_patterns (A.Access_patterns.analyze oracle));
      let lt = A.Lifetime.analyze batch in
      check "lifetime by files" (cdf lifetime.by_files lt.by_files);
      check "lifetime by bytes" (cdf lifetime.by_bytes lt.by_bytes);
      check "lifetime deaths aged" (lifetime.deaths_aged = lt.deaths_aged);
      check "lifetime deaths unknown"
        (lifetime.deaths_unknown = lt.deaths_unknown);
      check "activity 600 s" (same activity_10min (activity 600.0));
      check "activity 600 s migrated"
        (same activity_10min_migrated (activity ~migrated_only:true 600.0));
      check "activity 10 s" (same activity_10s (activity 10.0));
      check "activity 10 s migrated"
        (same activity_10s_migrated (activity ~migrated_only:true 10.0));
      check "polling 60 s"
        (polling_equal polling_60s (Polling.simulate ~interval:60.0 batch));
      check "polling 3 s"
        (polling_equal polling_3s (Polling.simulate ~interval:3.0 batch));
      check "consistency" (same consistency (A.Consistency_stats.analyze batch));
      let streams = C.Shared_events.extract batch in
      check "table 12"
        (same overhead
           {
             A.Fused.demand_bytes = C.Shared_events.total_requested streams;
             demand_requests = C.Shared_events.total_requests streams;
             sprite = C.Sprite.simulate streams;
             sprite_modified = C.Sprite_modified.simulate streams;
             token = C.Token.simulate streams;
           });
      check "some accesses" (access_patterns.grand_total.accesses > 0);
      check "some active users" (activity_10min.max_active_users > 0);
      check "some opens" (consistency.file_opens > 0);
      aged := !aged + lifetime.deaths_aged;
      shared := !shared + overhead.demand_requests)
    ds.runs;
  Alcotest.(check bool) "some aged deaths" true (!aged > 0);
  Alcotest.(check bool) "some write-sharing" true (!shared > 0)

(* The fused pass reads the first record's time (Table 2's interval
   origin) off the head of the stream: leading empty chunks are skipped,
   and an empty trace gives the empty reports. *)
let test_fused_origin_edge_cases () =
  let ds = Dfs_core.Dataset.generate ~scale:0.004 ~traces:[ 1 ] ~jobs:1 () in
  let batch = Dfs_trace.Sink.to_batch (List.hd ds.runs).trace in
  let empty = Dfs_trace.Record_batch.of_list [] in
  Alcotest.(check bool) "leading empty chunks" true
    (fused_equal (A.Fused.analyze batch)
       (A.Fused.analyze_seq (List.to_seq [ empty; empty; batch; empty ])));
  let none = A.Fused.analyze_seq (List.to_seq [ empty; empty ]) in
  Alcotest.(check bool) "empty trace" true
    (fused_equal (A.Fused.analyze empty) none
    && same none.activity_10s (A.Activity.analyze ~interval:10.0 empty)
    && none.activity_10min.max_active_users = 0
    && none.polling_60s.users_seen = 0
    && none.consistency.file_opens = 0)

let test_dataset_fused_memoized () =
  let ds = Dfs_core.Dataset.generate ~scale:0.004 ~traces:[ 1 ] ~jobs:1 () in
  let run = List.hd ds.runs in
  let a = Dfs_core.Dataset.fused run in
  let b = Dfs_core.Dataset.fused run in
  Alcotest.(check bool) "same (physically shared) analysis" true (a == b);
  Alcotest.(check bool) "non-empty" true (a.stats.open_events > 0)

let suite =
  [
    Alcotest.test_case "pool: map preserves order" `Quick
      test_map_preserves_order;
    Alcotest.test_case "pool: parallel equals sequential" `Quick
      test_map_matches_sequential;
    Alcotest.test_case "pool: empty and singleton" `Quick
      test_map_empty_and_singleton;
    Alcotest.test_case "pool: earliest exception wins" `Quick
      test_exception_propagates_earliest;
    Alcotest.test_case "pool: failure stops claiming at jobs 1" `Quick
      test_failure_stops_claiming;
    Alcotest.test_case "pool: nested use rejected" `Quick
      test_nested_use_rejected;
    Alcotest.test_case "pool: jobs clamped to 1" `Quick test_jobs_clamped;
    Alcotest.test_case "metrics: counter shards sum" `Quick
      test_counter_shards_sum_across_domains;
    Alcotest.test_case "metrics: histogram shards merge" `Quick
      test_histogram_shards_merge_across_domains;
    Alcotest.test_case "metrics: cross-domain visibility" `Quick
      test_counter_visible_from_spawning_domain;
    Alcotest.test_case "dataset: jobs=1 equals jobs=4" `Slow
      test_dataset_deterministic_across_jobs;
    Alcotest.test_case "fused: inside a pool task equals top level" `Slow
      test_fused_inside_task_equals_top_level;
    Alcotest.test_case "fused: folds equal standalone analyses" `Slow
      test_fused_folds_equal_standalone;
    Alcotest.test_case "fused: interval origin edge cases" `Quick
      test_fused_origin_edge_cases;
    Alcotest.test_case "dataset: fused memoized" `Quick
      test_dataset_fused_memoized;
  ]
