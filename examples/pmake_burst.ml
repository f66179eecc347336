(* Process migration and burstiness: the paper found that users with
   migrated processes generated file traffic at short-term rates forty
   times the medium-term average, and that migration did NOT hurt cache
   hit ratios (migrated tasks have high locality because pmake reuses the
   same idle hosts).

   This example drives one developer running repeated parallel builds
   (pmake) and compares 10-second burst rates and cache behaviour between
   the migrated jobs and everything else.

   Run with:  dune exec examples/pmake_burst.exe *)

module Cluster = Dfs_sim.Cluster
module Engine = Dfs_sim.Engine
module Ids = Dfs_trace.Ids

let () =
  let cluster =
    Cluster.create
      {
        Cluster.default_config with
        n_clients = 10;
        n_servers = 1;
        seed = 2024;
        simulate_infrastructure = false;
      }
  in
  let params = Dfs_workload.Params.default in
  let ns =
    Dfs_workload.Namespace.create ~fs:(Cluster.fs cluster)
      ~rng:(Dfs_util.Rng.split (Cluster.rng cluster))
      ~params ~now:0.0 ~n_users:2
  in
  let board = Dfs_workload.Migration.create ~n_clients:10 () in
  let ctx =
    {
      Dfs_workload.Apps.cluster;
      params;
      ns;
      board;
      rng = Dfs_util.Rng.create 7;
      user = Ids.User.of_int 0;
      group = Dfs_workload.Params.Os_research;
      home = 0;
      uses_migration = true;
    }
  in
  (* One developer in a hurry: twenty pmakes back to back. *)
  Engine.spawn (Cluster.engine cluster) (fun () ->
      for _ = 1 to 20 do
        Dfs_workload.Apps.pmake ctx;
        Engine.sleep 30.0
      done);
  Dfs_workload.Sharded.drive cluster ~until:7200.0;

  let batch = Dfs_trace.Sink.to_batch (Cluster.merged_chunks cluster) in
  let all = Dfs_analysis.Activity.analyze ~interval:10.0 batch in
  let mig =
    Dfs_analysis.Activity.analyze ~migrated_only:true ~interval:10.0 batch
  in
  Printf.printf "10-second peak throughput, all traffic:      %8.0f KB/s\n"
    all.peak_total_throughput;
  Printf.printf "10-second peak throughput, migrated traffic: %8.0f KB/s\n"
    mig.peak_total_throughput;

  (* Where did the migrated jobs run? *)
  let hosts = Hashtbl.create 8 in
  for i = 0 to Dfs_trace.Record_batch.length batch - 1 do
    if Dfs_trace.Record_batch.migrated batch i then
      Hashtbl.replace hosts (Dfs_trace.Record_batch.client batch i) ()
  done;
  Printf.printf "idle hosts used by migrated jobs: %d of %d (host reuse)\n"
    (Hashtbl.length hosts) 10;

  (* Cache effectiveness for migrated vs. all processes (Table 6's
     comparison): migrated jobs reuse hosts, so their hit ratios hold up. *)
  let stats =
    Array.to_list
      (Array.map
         (fun c -> Dfs_cache.Block_cache.stats (Dfs_sim.Client.cache c))
         (Cluster.clients cluster))
  in
  let eff = Dfs_analysis.Cache_stats.effectiveness stats ~migrated:false in
  let eff_mig = Dfs_analysis.Cache_stats.effectiveness stats ~migrated:true in
  Printf.printf "file read miss ratio, all processes:      %5.1f%%\n"
    eff.read_miss.mean_pct;
  Printf.printf "file read miss ratio, migrated processes: %5.1f%%\n"
    eff_mig.read_miss.mean_pct;

  (* The recalls the links triggered when reading freshly built remote
     objects. *)
  let k = Dfs_sim.Server.consistency (Cluster.servers cluster).(0) in
  Printf.printf "server recalls of dirty data: %d (over %d file opens)\n"
    k.recalls k.file_opens
