(* End-to-end integration tests: short full-cluster simulations checked
   for global invariants, plus the experiment registry. *)

module Cluster = Dfs_sim.Cluster
module Record = Dfs_trace.Record
module Ids = Dfs_trace.Ids
module Bc = Dfs_cache.Block_cache

let shared_run =
  lazy
    (let p =
       Dfs_workload.Presets.scaled (Dfs_workload.Presets.trace 1) ~factor:0.01
     in
     Dfs_workload.Presets.run p)

let trace () = Dfs_trace.Sink.to_batch (Cluster.merged_chunks (fst (Lazy.force shared_run)))

let cluster () = fst (Lazy.force shared_run)

let test_trace_nonempty_and_sorted () =
  let t = trace () in
  Alcotest.(check bool) "records exist" true (Dfs_trace.Record_batch.length t > 100);
  Alcotest.(check bool) "time sorted" true
    (Merge_model.is_sorted (Array.to_list (Dfs_trace.Record_batch.to_array t)))

let test_opens_match_closes () =
  let t = trace () in
  let count tag =
    let n = ref 0 in
    for i = 0 to Dfs_trace.Record_batch.length t - 1 do
      if Dfs_trace.Record_batch.tag t i = tag then incr n
    done;
    !n
  in
  let opens = count Dfs_trace.Record_batch.tag_open in
  let closes = count Dfs_trace.Record_batch.tag_close in
  (* sessions cut off at the horizon may leave a few dangling opens *)
  Alcotest.(check bool) "closes <= opens" true (closes <= opens);
  Alcotest.(check bool) "almost balanced" true (opens - closes < 64)

let test_cache_invariants_hold_after_run () =
  let c = cluster () in
  Array.iter
    (fun client -> Bc.check_invariants (Dfs_sim.Client.cache client))
    (Cluster.clients c);
  Array.iter
    (fun server -> Bc.check_invariants (Dfs_sim.Server.cache server))
    (Cluster.servers c)

let test_server_bytes_bounded_by_raw () =
  let c = cluster () in
  let raw = Dfs_sim.Traffic.total (Cluster.total_traffic c) in
  let srv = Dfs_sim.Traffic.total (Cluster.total_server_traffic c) in
  Alcotest.(check bool) "caches only filter, never amplify (with block slack)"
    true
    (float_of_int srv < (1.25 *. float_of_int raw) +. 1e6)

let test_hits_plus_misses () =
  let c = cluster () in
  Array.iter
    (fun client ->
      let s = (Bc.stats (Dfs_sim.Client.cache client)).all in
      Alcotest.(check int) "ops conserve" s.read_ops (s.read_hits + s.read_misses))
    (Cluster.clients c)

let test_counters_sampled () =
  let c = cluster () in
  Alcotest.(check bool) "counter samples recorded" true
    (Dfs_sim.Counters.count (Cluster.counters c) > 0)

let test_consistency_actions_only_under_multiclient () =
  (* replayed actions from the trace agree with the live servers' sums *)
  let c = cluster () in
  let t = trace () in
  let live =
    Array.fold_left
      (fun (o, s, r) server ->
        let k = Dfs_sim.Server.consistency server in
        (o + k.file_opens, s + k.sharing_opens, r + k.recalls))
      (0, 0, 0) (Cluster.servers c)
  in
  let replay = Dfs_analysis.Consistency_stats.analyze t in
  let live_opens, live_sharing, live_recalls = live in
  (* the live count includes infrastructure accesses that the merged trace
     scrubs, so replayed counts can be slightly lower, never higher *)
  Alcotest.(check bool) "opens bounded" true (replay.file_opens <= live_opens);
  Alcotest.(check bool) "sharing bounded" true
    (replay.sharing_opens <= live_sharing + 4);
  Alcotest.(check bool) "recalls close to live" true
    (abs (replay.recall_opens - live_recalls) <= live_recalls / 2 + 8)

let test_write_trace_files_and_reanalyze () =
  let c = cluster () in
  let dir = Filename.temp_file "dfs" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let paths =
        List.mapi
          (fun i chunks ->
            let path = Filename.concat dir (Printf.sprintf "s%d.trace" i) in
            Dfs_trace.Writer.with_file path (fun w ->
                Dfs_trace.Sink.iter (Dfs_trace.Writer.write w) chunks);
            path)
          (Cluster.server_chunks c)
      in
      let sources =
        List.map
          (fun p ->
            match Dfs_trace.Reader.batch_of_file p with
            | Ok b -> Dfs_trace.Sink.of_batch b
            | Error e -> Alcotest.failf "read %s: %s" p e)
          paths
      in
      let merged =
        Dfs_trace.Merge.merge_chunks ~scrub:Cluster.self_users sources
      in
      Alcotest.(check int) "file roundtrip preserves the trace"
        (Dfs_trace.Record_batch.length (trace ()))
        (Dfs_trace.Sink.length merged))

let test_experiment_registry () =
  Alcotest.(check int) "16 experiments" 16 (List.length Dfs_core.Experiment.all);
  List.iter
    (fun id ->
      match Dfs_core.Experiment.find id with
      | Some e -> Alcotest.(check string) "id match" id e.id
      | None -> Alcotest.failf "missing experiment %s" id)
    [ "table1"; "table12"; "fig1"; "fig4" ];
  Alcotest.(check (option string)) "unknown id" None
    (Option.map
       (fun (e : Dfs_core.Experiment.t) -> e.id)
       (Dfs_core.Experiment.find "table99"))

let test_experiments_render_on_tiny_dataset () =
  (* every experiment must produce a non-empty report without raising *)
  let ds = Dfs_core.Dataset.generate ~scale:0.004 ~traces:[ 1 ] () in
  List.iter
    (fun (e : Dfs_core.Experiment.t) ->
      let out = e.run ds in
      Alcotest.(check bool) (e.id ^ " renders") true (String.length out > 40))
    Dfs_core.Experiment.all

let test_claims_evaluate () =
  let ds = Dfs_core.Dataset.generate ~scale:0.004 ~traces:[ 1 ] () in
  let results = Dfs_core.Claims.evaluate ds in
  Alcotest.(check bool) "claims defined" true (List.length results >= 20);
  List.iter
    (fun (r : Dfs_core.Claims.result) ->
      Alcotest.(check bool)
        (r.claim.c_id ^ " measured is finite")
        true
        (Float.is_finite r.measured))
    results

let ablation_headers =
  [
    "=== section 5.3: absolute paging rates (trace 1) ===";
    "=== table 7 footnote: the server-side cache ===";
    "== ablation: delayed-write interval vs writeback traffic ==";
    "== ablation: cache size ceiling vs read miss ratio ==";
    "== ablation: migration on/off vs 10-second burst rate ==";
    "== ablation: share of server traffic a local paging disk would remove ==";
    "== ablation: update-in-place vs log-structured server disk (Section 6) ==";
  ]

let test_ablations_render () =
  let ds = Dfs_core.Dataset.generate ~scale:0.005 ~traces:[ 1 ] () in
  let run = List.hd ds.runs in
  let out = Dfs_core.Ablation.render run in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check (list string)) "seven sections in order" ablation_headers
    (List.filter (String.starts_with ~prefix:"==") lines);
  (* the LFS table: rows between its column header and its closing note *)
  let rec rows_after_header = function
    | l :: rest when String.starts_with ~prefix:"  client read-miss" l -> rest
    | _ :: rest -> rows_after_header rest
    | [] -> []
  in
  let rows =
    List.filter
      (fun l -> not (String.starts_with ~prefix:"  (" l) && l <> "")
      (rows_after_header lines)
  in
  Alcotest.(check int) "five crossover rows" 5 (List.length rows);
  Alcotest.(check string) "second render byte-equal" out
    (Dfs_core.Ablation.render run)

let test_paper_constants_sane () =
  Alcotest.(check bool) "t10 range ordered" true
    (Dfs_core.Paper.t10_sharing.lo <= Dfs_core.Paper.t10_sharing.value
    && Dfs_core.Paper.t10_sharing.value <= Dfs_core.Paper.t10_sharing.hi);
  Alcotest.(check (float 1e-9)) "sprite baseline ratio" 1.0
    Dfs_core.Paper.t12_sprite.bytes_ratio;
  Alcotest.(check bool) "reads dominate" true
    (Dfs_core.Paper.t5_reads_pct > Dfs_core.Paper.t5_writes_pct)

let suite =
  [
    ("trace nonempty and sorted", `Slow, test_trace_nonempty_and_sorted);
    ("opens match closes", `Slow, test_opens_match_closes);
    ("cache invariants after run", `Slow, test_cache_invariants_hold_after_run);
    ("server bytes bounded by raw", `Slow, test_server_bytes_bounded_by_raw);
    ("hits plus misses conserve", `Slow, test_hits_plus_misses);
    ("counters sampled", `Slow, test_counters_sampled);
    ("consistency replay vs live", `Slow, test_consistency_actions_only_under_multiclient);
    ("trace files roundtrip + reanalyze", `Slow, test_write_trace_files_and_reanalyze);
    ("experiment registry", `Quick, test_experiment_registry);
    ("experiments render", `Slow, test_experiments_render_on_tiny_dataset);
    ("claims evaluate", `Slow, test_claims_evaluate);
    ("ablations render", `Slow, test_ablations_render);
    ("paper constants sane", `Quick, test_paper_constants_sane);
  ]
