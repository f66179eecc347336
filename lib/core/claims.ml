module A = Dfs_analysis
module C = Dfs_consistency

type verdict = Reproduced | Near | Off

let verdict_name = function
  | Reproduced -> "REPRODUCED"
  | Near -> "NEAR"
  | Off -> "OFF"

type claim = {
  c_id : string;
  c_section : string;
  c_text : string;
  c_paper : float;
  c_unit : string;
  c_lo : float;
  c_hi : float;
  c_measure : Dataset.t -> float;
}

(* -- measurement helpers --------------------------------------------------- *)

(* Per-trace results of the fused pass, which carries Tables 2, 10 and
   11's folds. *)
let fused ds get = Dataset.per_trace ds (fun r -> get (Dataset.fused r))

let avg_tput get ds =
  Dataset.mean
    (List.map
       (fun (r : A.Activity.report) -> r.avg_user_throughput)
       (fused ds get))

let effectiveness ?(migrated = false) ds =
  A.Cache_stats.effectiveness (Dataset.all_cache_stats ds) ~migrated

(* -- the claims ------------------------------------------------------------- *)

let all =
  [
    {
      c_id = "throughput-per-user";
      c_section = "4.1";
      c_text =
        "Average file throughput is ~8 KB/s per active user over 10-minute \
         intervals (20x the BSD study)";
      c_paper = 8.0;
      c_unit = "KB/s";
      c_lo = 2.5;
      c_hi = 25.0;
      c_measure = avg_tput (fun f -> f.A.Fused.activity_10min);
    };
    {
      c_id = "migration-burst-factor";
      c_section = "4.1";
      c_text =
        "Users with migrated processes see several times the overall \
         per-user throughput (migration marshals many workstations)";
      c_paper = 6.3;
      c_unit = "x";
      c_lo = 1.5;
      c_hi = 20.0;
      c_measure =
        (fun ds ->
          let all = avg_tput (fun f -> f.A.Fused.activity_10min) ds in
          let mig = avg_tput (fun f -> f.A.Fused.activity_10min_migrated) ds in
          if all <= 0.0 then 0.0 else mig /. all);
    };
    {
      c_id = "sequential-bytes";
      c_section = "4.2";
      c_text = "More than 90% of all data is transferred sequentially";
      c_paper = 90.0;
      c_unit = "%";
      c_lo = 80.0;
      c_hi = 100.0;
      c_measure =
        (fun ds ->
          let pats =
            Dataset.per_trace ds (fun r ->
                (Dataset.fused r).A.Fused.access_patterns)
          in
          Dataset.mean
            (List.map
               (fun (p : A.Access_patterns.t) ->
                 let random_bytes =
                   p.read_only.random.bytes + p.write_only.random.bytes
                   + p.read_write.random.bytes
                 in
                 let total = max 1 p.grand_total.bytes in
                 100.0 *. (1.0 -. (float_of_int random_bytes /. float_of_int total)))
               pats));
    };
    {
      c_id = "short-runs";
      c_section = "4.2";
      c_text = "About 80% of sequential runs transfer less than 10 KB";
      c_paper = 80.0;
      c_unit = "%";
      c_lo = 60.0;
      c_hi = 95.0;
      c_measure =
        (fun ds ->
          Dataset.mean
            (Dataset.per_trace ds (fun r ->
                 let f = (Dataset.fused r).A.Fused.run_length in
                 100.0 *. Dfs_util.Cdf.fraction_below f.by_runs 10240.0)));
    };
    {
      c_id = "megabyte-runs";
      c_section = "4.2";
      c_text =
        "At least 10% of all bytes move in sequential runs longer than 1 MB \
         (10x the BSD study's largest runs)";
      c_paper = 10.0;
      c_unit = "%";
      c_lo = 10.0;
      c_hi = 90.0;
      c_measure =
        (fun ds ->
          Dataset.mean
            (Dataset.per_trace ds (fun r ->
                 let f = (Dataset.fused r).A.Fused.run_length in
                 100.0 *. (1.0 -. Dfs_util.Cdf.fraction_below f.by_bytes 1048576.0))));
    };
    {
      c_id = "short-opens";
      c_section = "4.3";
      c_text = "About 75% of files are open less than a quarter second";
      c_paper = 75.0;
      c_unit = "%";
      c_lo = 60.0;
      c_hi = 90.0;
      c_measure =
        (fun ds ->
          Dataset.mean
            (Dataset.per_trace ds (fun r ->
                 100.0
                 *. A.Open_time.fraction_under (Dataset.fused r).A.Fused.open_time 0.25)));
    };
    {
      c_id = "short-file-lifetimes";
      c_section = "4.3";
      c_text = "65-80% of files live less than 30 seconds";
      c_paper = 72.5;
      c_unit = "%";
      c_lo = 55.0;
      c_hi = 92.0;
      c_measure =
        (fun ds ->
          Dataset.mean
            (Dataset.per_trace ds (fun r ->
                 100.0
                 *. A.Lifetime.fraction_files_under (Dataset.fused r).A.Fused.lifetime 30.0)));
    };
    {
      c_id = "byte-lifetimes-longer";
      c_section = "4.3";
      c_text =
        "Only a small fraction (4-27%) of new bytes die within 30 seconds — \
         short-lived files are short";
      c_paper = 15.0;
      c_unit = "%";
      c_lo = 3.0;
      c_hi = 40.0;
      c_measure =
        (fun ds ->
          Dataset.mean
            (Dataset.per_trace ds (fun r ->
                 100.0
                 *. A.Lifetime.fraction_bytes_under (Dataset.fused r).A.Fused.lifetime 30.0)));
    };
    {
      c_id = "cache-size";
      c_section = "5.1";
      c_text =
        "Client caches settle at about 7 MB — a quarter to a third of main \
         memory";
      c_paper = 7.0;
      c_unit = "MB";
      c_lo = 3.5;
      c_hi = 10.0;
      c_measure =
        (fun ds ->
          (A.Cache_stats.cache_sizes (Dataset.merged_counters ds)).avg_bytes
          /. 1048576.0);
    };
    {
      c_id = "cache-filter-ratio";
      c_section = "5.2";
      c_text = "Client caches filter out about half of the raw traffic";
      c_paper = 50.0;
      c_unit = "% passed";
      c_lo = 35.0;
      c_hi = 70.0;
      c_measure =
        (fun ds ->
          100.0
          *. A.Cache_stats.filter_ratio ~raw:(Dataset.raw_traffic ds)
               ~server:(Dataset.server_traffic ds));
    };
    {
      c_id = "read-miss-ratio";
      c_section = "5.2";
      c_text =
        "Read miss ratios are ~40% — four times the BSD study's prediction, \
         because of the new large files";
      c_paper = 41.4;
      c_unit = "%";
      c_lo = 20.0;
      c_hi = 55.0;
      c_measure = (fun ds -> (effectiveness ds).read_miss.mean_pct);
    };
    {
      c_id = "writeback-traffic";
      c_section = "5.2";
      c_text =
        "About 90% of new bytes eventually get written through to the \
         server (only ~10% die in the cache within the 30-s delay)";
      c_paper = 88.4;
      c_unit = "%";
      c_lo = 75.0;
      c_hi = 98.0;
      c_measure = (fun ds -> (effectiveness ds).writeback_traffic.mean_pct);
    };
    {
      c_id = "write-fetches-rare";
      c_section = "5.2";
      c_text = "Write fetches (partial writes of non-resident blocks) are rare";
      c_paper = 1.2;
      c_unit = "%";
      c_lo = 0.0;
      c_hi = 5.0;
      c_measure = (fun ds -> (effectiveness ds).write_fetch.mean_pct);
    };
    {
      c_id = "migrated-cache-locality";
      c_section = "5.2";
      c_text =
        "Migrated processes hit the caches at least as well as processes in \
         general (host reuse gives them locality)";
      c_paper = 0.54;
      c_unit = "x (mig/all miss)";
      c_lo = 0.0;
      c_hi = 1.3;
      c_measure =
        (fun ds ->
          let all = (effectiveness ds).read_miss.mean_pct in
          let mig = (effectiveness ~migrated:true ds).read_miss.mean_pct in
          if all <= 0.0 then 1.0 else mig /. all);
    };
    {
      c_id = "paging-share";
      c_section = "5.3";
      c_text = "Paging is roughly a third of the bytes moved, raw and at the server";
      c_paper = 35.0;
      c_unit = "% of server bytes";
      c_lo = 20.0;
      c_hi = 50.0;
      c_measure =
        (fun ds ->
          let t = Dataset.server_traffic ds in
          let paging =
            Dfs_sim.Traffic.read_bytes t Dfs_sim.Traffic.Paging_cached
            + Dfs_sim.Traffic.write_bytes t Dfs_sim.Traffic.Paging_cached
            + Dfs_sim.Traffic.read_bytes t Dfs_sim.Traffic.Paging_backing
            + Dfs_sim.Traffic.write_bytes t Dfs_sim.Traffic.Paging_backing
          in
          100.0 *. float_of_int paging /. float_of_int (max 1 (Dfs_sim.Traffic.total t)));
    };
    {
      c_id = "delay-cleanings";
      c_section = "5.4";
      c_text =
        "About three-fourths of dirty-block cleanings happen because the \
         30-second delay elapsed";
      c_paper = 75.0;
      c_unit = "%";
      c_lo = 60.0;
      c_hi = 99.0;
      c_measure =
        (fun ds ->
          let rows = A.Cache_stats.cleanings (Dataset.all_cache_stats ds) in
          match
            List.find_opt
              (fun (r : A.Cache_stats.reason_row) -> r.r_label = "30-second delay")
              rows
          with
          | Some r -> r.blocks_pct
          | None -> 0.0);
    };
    {
      c_id = "write-sharing-rare";
      c_section = "5.5";
      c_text =
        "Concurrent write-sharing happens on ~0.34% of file opens — rare, \
         but common enough to matter daily";
      c_paper = 0.34;
      c_unit = "% of opens";
      c_lo = 0.05;
      c_hi = 1.0;
      c_measure =
        (fun ds ->
          Dataset.mean
            (List.map A.Consistency_stats.sharing_pct
               (fused ds (fun f -> f.A.Fused.consistency))));
    };
    {
      c_id = "recall-rate";
      c_section = "5.5";
      c_text =
        "About one open in sixty recalls dirty data from another client \
         (an upper bound; the server cannot tell if it was already flushed)";
      c_paper = 1.7;
      c_unit = "% of opens";
      c_lo = 0.5;
      c_hi = 6.0;
      c_measure =
        (fun ds ->
          Dataset.mean
            (List.map A.Consistency_stats.recall_pct
               (fused ds (fun f -> f.A.Fused.consistency))));
    };
    {
      c_id = "polling-users-affected";
      c_section = "5.5";
      c_text =
        "Under 60-second polling consistency, about half the users would \
         read stale data in a day";
      c_paper = 48.0;
      c_unit = "% of users";
      c_lo = 15.0;
      c_hi = 70.0;
      c_measure =
        (fun ds ->
          Dataset.mean
            (List.map C.Polling.pct_users_affected
               (fused ds (fun f -> f.A.Fused.polling_60s))));
    };
    {
      c_id = "polling-interval-contrast";
      c_section = "5.5";
      c_text =
        "Tightening the polling interval from 60 s to 3 s cuts stale reads \
         by an order of magnitude (but does not eliminate them)";
      c_paper = 30.0;
      c_unit = "x fewer";
      c_lo = 3.0;
      c_hi = 500.0;
      c_measure =
        (fun ds ->
          let e60 =
            Dataset.mean
              (List.map
                 (fun (r : C.Polling.report) -> r.errors_per_hour)
                 (fused ds (fun f -> f.A.Fused.polling_60s)))
          in
          let e3 =
            Dataset.mean
              (List.map
                 (fun (r : C.Polling.report) -> r.errors_per_hour)
                 (fused ds (fun f -> f.A.Fused.polling_3s)))
          in
          if e3 <= 0.0 then 500.0 else e60 /. e3);
    };
    {
      c_id = "consistency-no-clear-winner";
      c_section = "5.6";
      c_text =
        "The consistency mechanisms have comparable overheads: the token \
         scheme moves roughly as many bytes as Sprite's simple disabling";
      c_paper = 0.98;
      c_unit = "x bytes vs Sprite";
      c_lo = 0.5;
      c_hi = 3.0;
      c_measure =
        (fun ds ->
          let ratios =
            List.filter_map
              (fun (r : Dataset.run) ->
                let o = (Dataset.fused r).A.Fused.overhead in
                if o.demand_bytes = 0 then None
                else
                  Some
                    (float_of_int o.token.C.Overhead.bytes_transferred
                    /. float_of_int o.demand_bytes))
              ds.runs
          in
          Dataset.mean ratios);
    };
    {
      c_id = "raw-reads-dominate";
      c_section = "5.2";
      c_text = "Raw file traffic favours reads about 4:1";
      c_paper = 4.0;
      c_unit = "x";
      c_lo = 2.0;
      c_hi = 6.0;
      c_measure =
        (fun ds ->
          let t = Dataset.raw_traffic ds in
          let r = Dfs_sim.Traffic.read_bytes t Dfs_sim.Traffic.File_data in
          let w = Dfs_sim.Traffic.write_bytes t Dfs_sim.Traffic.File_data in
          if w = 0 then 0.0 else float_of_int r /. float_of_int w);
    };
  ]

type result = { claim : claim; measured : float; verdict : verdict }

let judge (c : claim) measured =
  if measured >= c.c_lo && measured <= c.c_hi then Reproduced
  else begin
    let span = c.c_hi -. c.c_lo in
    if measured >= c.c_lo -. (0.5 *. span) && measured <= c.c_hi +. (0.5 *. span)
    then Near
    else Off
  end

let evaluate ds =
  List.map
    (fun c ->
      let measured = c.c_measure ds in
      { claim = c; measured; verdict = judge c measured })
    all

let scorecard ds =
  let results = evaluate ds in
  let tbl =
    Dfs_util.Table.create
      ~caption:"Scorecard: the paper's headline findings vs this reproduction."
      ~columns:
        [
          ("#", Dfs_util.Table.Left);
          ("Claim", Dfs_util.Table.Left);
          ("Paper", Dfs_util.Table.Right);
          ("Measured", Dfs_util.Table.Right);
          ("Verdict", Dfs_util.Table.Left);
        ]
      ()
  in
  List.iter
    (fun r ->
      Dfs_util.Table.add_row tbl
        [
          r.claim.c_section;
          r.claim.c_id;
          Printf.sprintf "%.2f %s" r.claim.c_paper r.claim.c_unit;
          Printf.sprintf "%.2f" r.measured;
          verdict_name r.verdict;
        ])
    results;
  let ok =
    List.length (List.filter (fun r -> r.verdict = Reproduced) results)
  in
  Dfs_util.Table.add_note tbl
    (Printf.sprintf "%d/%d claims reproduced within their shape bands." ok
       (List.length results));
  Dfs_util.Table.render tbl
