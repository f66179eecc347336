module Presets = Dfs_workload.Presets
module Sink = Dfs_trace.Sink

(* The fused single-pass analysis (session reconstruction plus its
   per-record and per-access folds, and Table 12) is needed by a dozen
   experiments and claims;
   computing it once per run and sharing the result is the point of this
   memo.  Filled on first demand under a double-checked mutex — OCaml's
   [Lazy] is not safe to force from several domains, and analyses of
   different runs do race when experiments fan out over the pool. *)
type memo = {
  lock : Mutex.t;
  mutable fused : Dfs_analysis.Fused.t option;
}

type run = {
  preset : Presets.preset;
  cluster : Dfs_sim.Cluster.t;
  trace : Sink.chunks;
  jobs : int;  (* read only by perfbench; see the interface *)
  memo : memo;
}

type t = { scale : float option; runs : run list }

let default_scale = 0.05

let simulate_preset ~scale ~faults ~chunk_records ~spill_dir ~jobs n =
  let preset = Presets.scaled (Presets.trace n) ~factor:scale in
  let preset =
    match faults with
    | None -> preset
    | Some profile -> Presets.with_faults preset profile
  in
  (* Wire the trace pipeline's memory bounds into the cluster: chunked
     per-server logs, optionally spilled to disk, tagged by preset name
     so concurrent presets never collide on segment files. *)
  let preset =
    {
      preset with
      Presets.cluster_config =
        {
          preset.Presets.cluster_config with
          trace_chunk_records = chunk_records;
          trace_spill_dir = spill_dir;
          trace_spill_tag = preset.Presets.name;
        };
    }
  in
  Dfs_obs.Log.info "simulating %s (%.1f h)" preset.name
    (preset.duration /. 3600.0);
  let t0 = Unix.gettimeofday () in
  let cluster, _driver =
    Dfs_obs.Profiler.span ~cat:"sim" ("sim." ^ preset.name) (fun () ->
        Presets.run preset)
  in
  let spill =
    Option.map
      (fun dir -> { Sink.dir; name = preset.name ^ "-merged" })
      spill_dir
  in
  let trace = Dfs_sim.Cluster.merged_chunks ?spill cluster in
  (* The simulation is over: drop the per-server logs (the merged chunks
     are the only live copy) along with the event queue and the per-file
     tables, which would otherwise dominate the dataset's footprint.
     The counters the analyses read all survive. *)
  Dfs_sim.Cluster.release_sim_state cluster;
  let elapsed = Unix.gettimeofday () -. t0 in
  (* Engine self-profiling: wall time per simulated run phase. *)
  Dfs_obs.Metrics.set
    (Dfs_obs.Metrics.gauge (Printf.sprintf "phase.sim.%s.wall_s" preset.name))
    elapsed;
  Dfs_obs.Log.debug "%s done in %.1fs (%d engine events)" preset.name elapsed
    (Dfs_sim.Engine.events_executed (Dfs_sim.Cluster.engine cluster));
  {
    preset;
    cluster;
    trace;
    jobs;
    memo = { lock = Mutex.create (); fused = None };
  }

let generate ?(scale = default_scale) ?(traces = [ 1; 2; 3; 4; 5; 6; 7; 8 ])
    ?jobs ?faults ?(chunk_records = Sink.default_chunk_records) ?spill_dir () =
  let pool = Dfs_util.Pool.create ?jobs () in
  let t_start = Unix.gettimeofday () in
  (* Each preset seeds its own RNG and builds its own cluster (and, with
     faults on, its own injector seeded only by the fault profile), so
     the simulations are independent; [Pool.map] returns them in preset
     order, making the parallel dataset byte-identical to DFS_JOBS=1. *)
  let runs =
    Dfs_obs.Profiler.span "dataset.generate" (fun () ->
        Dfs_util.Pool.map pool
          (simulate_preset ~scale ~faults ~chunk_records ~spill_dir
             ~jobs:(Dfs_util.Pool.jobs pool))
          traces)
  in
  Dfs_obs.Metrics.set
    (Dfs_obs.Metrics.gauge "phase.dataset.wall_s")
    (Unix.gettimeofday () -. t_start);
  Dfs_obs.Metrics.set
    (Dfs_obs.Metrics.gauge "phase.dataset.jobs")
    (float_of_int (Dfs_util.Pool.jobs pool));
  { scale = Some scale; runs }

(* A replayed dataset: one run whose cluster executed a foreign trace
   instead of a synthetic preset.  Every experiment reads it through
   the same [run] record — the trace-only analyses see the replayed
   cluster's merged log, the cache/traffic analyses see its finished
   caches and counters. *)
let of_replay ?jobs path =
  match Dfs_trace.Reader.batch_of_file path with
  | exception Sys_error e -> Error e
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | Ok batch -> (
    let t0 = Unix.gettimeofday () in
    match Dfs_workload.Replay.run batch with
    | Error e -> Error e
    | Ok (cluster, stats) ->
      let trace = Dfs_sim.Cluster.merged_chunks cluster in
      Dfs_sim.Cluster.release_sim_state cluster;
      Dfs_obs.Metrics.set
        (Dfs_obs.Metrics.gauge "phase.sim.replay.wall_s")
        (Unix.gettimeofday () -. t0);
      let cfg = Dfs_sim.Cluster.cfg cluster in
      let preset =
        {
          Presets.name = "replay";
          seed = cfg.Dfs_sim.Cluster.seed;
          duration = stats.Dfs_workload.Replay.horizon;
          start_hour = 0.0;
          cluster_config = cfg;
          params = Dfs_workload.Params.default;
          special_users = [];
        }
      in
      let jobs =
        match jobs with Some j -> j | None -> Dfs_util.Pool.default_jobs ()
      in
      let run =
        {
          preset;
          cluster;
          trace;
          jobs;
          memo = { lock = Mutex.create (); fused = None };
        }
      in
      Ok ({ scale = None; runs = [ run ] }, stats))

let trace_seq run = Sink.to_seq run.trace

let fused run =
  match run.memo.fused with
  | Some f -> f
  | None ->
    Mutex.lock run.memo.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock run.memo.lock)
      (fun () ->
        match run.memo.fused with
        | Some f -> f
        | None ->
          let f = Dfs_analysis.Fused.analyze_chunks run.trace in
          run.memo.fused <- Some f;
          f)

let client_cache_stats run =
  Array.to_list
    (Array.map
       (fun c -> Dfs_cache.Block_cache.stats (Dfs_sim.Client.cache c))
       (Dfs_sim.Cluster.clients run.cluster))

let per_trace t f = List.map f t.runs

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let all_cache_stats t = List.concat_map client_cache_stats t.runs

let sum_traffic t total =
  List.fold_left
    (fun acc run -> Dfs_sim.Traffic.merge acc (total run.cluster))
    (Dfs_sim.Traffic.create ()) t.runs

let raw_traffic t = sum_traffic t Dfs_sim.Cluster.total_traffic

let server_traffic t = sum_traffic t Dfs_sim.Cluster.total_server_traffic
