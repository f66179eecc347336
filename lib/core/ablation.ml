module Presets = Dfs_workload.Presets
module Cluster = Dfs_sim.Cluster
module Block_cache = Dfs_cache.Block_cache

(* One short simulation per configuration: preset [n] cut to 1% of a day
   on 10 clients and one server, with [client] applied to the client
   config and [params] to the workload parameters. *)
let run_mini ?(client = Fun.id) ?(params = Fun.id) n =
  let p = Presets.scaled (Presets.trace n) ~factor:0.01 in
  let cc = p.cluster_config in
  fst
    (Presets.run
       {
         p with
         Presets.cluster_config =
           {
             cc with
             Cluster.n_clients = 10;
             n_servers = 1;
             client_config = client cc.client_config;
           };
         params = params p.params;
       })

let sum_client_stats cluster f =
  Array.fold_left
    (fun acc c -> acc + f (Block_cache.stats (Dfs_sim.Client.cache c)))
    0 (Cluster.clients cluster)

let pct part whole = 100.0 *. float_of_int part /. float_of_int (max 1 whole)

let footnotes b (run : Dataset.run) =
  let cluster = run.cluster in
  let paging =
    Dfs_analysis.Paging_stats.analyze
      ~n_clients:(Array.length (Cluster.clients cluster))
      ~duration:run.preset.duration
      ~raw:(Cluster.total_traffic cluster)
  in
  let servers = Array.to_list (Cluster.servers cluster) in
  Printf.bprintf b
    "=== section 5.3: absolute paging rates (trace 1) ===\n%s\n\n\
     === table 7 footnote: the server-side cache ===\n%s\n\n"
    (Format.asprintf "%a" Dfs_analysis.Paging_stats.pp paging)
    (Format.asprintf "%a" Dfs_analysis.Server_stats.pp
       (Dfs_analysis.Server_stats.analyze servers))

let writeback_delay b =
  Buffer.add_string b
    "== ablation: delayed-write interval vs writeback traffic ==\n";
  List.iter
    (fun delay ->
      let cluster =
        run_mini 1 ~client:(fun c ->
            { c with Dfs_sim.Client.writeback_delay = delay })
      in
      let sum = sum_client_stats cluster in
      let written = sum (fun s -> s.all.bytes_written) in
      Printf.bprintf b
        "  delay %5.0fs: %5.1f%% of new bytes written back, %4.1f%% died in \
         the cache\n"
        delay
        (pct (sum (fun s -> s.writeback_bytes)) written)
        (pct (sum (fun s -> s.dirty_bytes_discarded)) written))
    [ 0.0; 5.0; 30.0; 120.0 ];
  Buffer.add_char b '\n'

let cache_ceiling b =
  Buffer.add_string b "== ablation: cache size ceiling vs read miss ratio ==\n";
  List.iter
    (fun frac ->
      let cluster =
        run_mini 5 ~client:(fun c ->
            { c with Dfs_sim.Client.max_cache_fraction = frac })
      in
      let sum = sum_client_stats cluster in
      Printf.bprintf b "  cache <= %4.0f%% of memory: read miss ratio %5.1f%%\n"
        (100.0 *. frac)
        (pct (sum (fun s -> s.file.read_misses)) (sum (fun s -> s.file.read_ops))))
    [ 0.04; 0.10; 0.20; 0.34; 0.60 ];
  Buffer.add_char b '\n'

let migration_policy b =
  Buffer.add_string b "== ablation: migration on/off vs 10-second burst rate ==\n";
  List.iter
    (fun migration ->
      let cluster =
        run_mini 1 ~params:(fun p ->
            { p with Dfs_workload.Params.migration_enabled = migration })
      in
      let batch = Dfs_trace.Sink.to_batch (Cluster.merged_chunks cluster) in
      let r = Dfs_analysis.Activity.analyze ~interval:10.0 batch in
      Printf.bprintf b "  migration %-3s: peak 10s total %6.0f KB/s\n"
        (if migration then "on" else "off")
        r.peak_total_throughput)
    [ true; false ];
  Buffer.add_char b '\n'

(* Section 5.3: local disks for paging would cut server traffic by only
   ~20%; this measures what share of server bytes the backing files are. *)
let local_paging b =
  Buffer.add_string b
    "== ablation: share of server traffic a local paging disk would remove ==\n";
  let t = Cluster.total_server_traffic (run_mini 1) in
  let backing =
    Dfs_sim.Traffic.read_bytes t Dfs_sim.Traffic.Paging_backing
    + Dfs_sim.Traffic.write_bytes t Dfs_sim.Traffic.Paging_backing
  in
  Printf.bprintf b
    "  backing-file traffic: %.1f%% of server bytes (paper argues ~20%% is \
     not worth a local disk)\n\n"
    (pct backing (Dfs_sim.Traffic.total t))

let lfs_crossover b run =
  Buffer.add_string b
    "== ablation: update-in-place vs log-structured server disk (Section 6) ==\n";
  Printf.bprintf b "  %-22s %14s %14s %8s\n" "client read-miss" "in-place (s)"
    "log (s)" "speedup";
  List.iter
    (fun (miss, ip, lg) ->
      Printf.bprintf b "  %-22s %14.1f %14.1f %7.1fx\n"
        (Printf.sprintf "%.0f%%" (100.0 *. miss))
        ip lg
        (if lg > 0.0 then ip /. lg else 0.0))
    (Dfs_lfs.Disk_layout.crossover_table (Dataset.sessions run) ~seed:11);
  Buffer.add_string b
    "  (as caches absorb more reads, writes dominate and the log wins — the \
     paper's closing argument for LFS)\n\n"

let render run =
  let b = Buffer.create 4096 in
  footnotes b run;
  writeback_delay b;
  cache_ceiling b;
  migration_policy b;
  local_paging b;
  lfs_crossover b run;
  Buffer.contents b
