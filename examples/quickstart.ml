(* Quickstart: simulate a short busy morning on a small Sprite-like
   cluster, then run the headline analyses on the trace it produced.

   Run with:  dune exec examples/quickstart.exe *)

module Cluster = Dfs_sim.Cluster
module Presets = Dfs_workload.Presets

let () =
  (* Take the standard "trace 1" configuration, shrunk to 45 simulated
     minutes of the busy part of the day, on a 12-client cluster. *)
  let preset = Presets.scaled (Presets.trace 1) ~factor:0.031 in
  let preset =
    {
      preset with
      Presets.cluster_config =
        { preset.cluster_config with Cluster.n_clients = 12; n_servers = 2 };
    }
  in
  Printf.printf "simulating %.0f minutes on %d clients...\n%!"
    (preset.duration /. 60.0) preset.cluster_config.n_clients;
  let cluster, driver = Presets.run preset in
  let batch = Dfs_trace.Sink.to_batch (Cluster.merged_chunks cluster) in
  let accesses = Dfs_analysis.Session.of_batch batch in

  (* Overall statistics (the shape of the paper's Table 1). *)
  let stats = Dfs_analysis.Trace_stats.of_batch ~accesses batch in
  Format.printf "@.%a@.@." Dfs_analysis.Trace_stats.pp stats;
  Printf.printf "simulated users: %d\n" (Dfs_workload.Driver.n_users driver);

  (* User activity (Table 2's measurement). *)
  let act = Dfs_analysis.Activity.analyze ~interval:600.0 batch in
  Format.printf "%a@.@." Dfs_analysis.Activity.pp act;

  (* Access patterns (Table 3's headline). *)
  let pat = Dfs_analysis.Access_patterns.analyze accesses in
  Printf.printf
    "read-only accesses: %.1f%% of accesses, %.1f%% of bytes\n"
    (Dfs_analysis.Access_patterns.pct_accesses pat pat.read_only)
    (Dfs_analysis.Access_patterns.pct_bytes pat pat.read_only);

  (* How effective were the client caches? *)
  let raw = Cluster.total_traffic cluster in
  let srv = Cluster.total_server_traffic cluster in
  Printf.printf
    "client caches passed %.0f%% of %.1f MB of raw traffic to the servers\n"
    (100.0 *. Dfs_analysis.Cache_stats.filter_ratio ~raw ~server:srv)
    (float_of_int (Dfs_sim.Traffic.total raw) /. 1048576.0);

  (* And the open-duration CDF point the paper highlights. *)
  let ot = Dfs_analysis.Open_time.analyze accesses in
  Printf.printf "opens under a quarter second: %.1f%%\n"
    (100.0 *. Dfs_analysis.Open_time.fraction_under ot 0.25)
