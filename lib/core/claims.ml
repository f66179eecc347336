module A = Dfs_analysis
module E = Experiment

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

(* A per-trace cell as a claim reads it. *)
let mean cell ds = Dataset.mean (cell ds)

(* A Table 6 ratio as a claim reads it: its mean over the client caches. *)
let t6 ?(migrated = false) ratio ds =
  (ratio (E.t6_effectiveness ~migrated ds) : A.Cache_stats.ratio).mean_pct

let read_miss (e : A.Cache_stats.effectiveness) = e.read_miss

(* -- the claims ------------------------------------------------------------- *)

let all =
  [
    {
      c_id = "throughput-per-user";
      c_section = "4.1";
      c_text =
        "Average file throughput is ~8 KB/s per active user over 10-minute \
         intervals (20x the BSD study)";
      c_paper = Paper.t2_all_10min.avg_tput;
      c_unit = "KB/s";
      c_lo = 2.5;
      c_hi = 25.0;
      c_measure = mean E.t2_user_tput;
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
        (fun ds -> mean E.t2_migrated_user_tput ds /. mean E.t2_user_tput ds);
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
        mean (fun ds ->
            Dataset.per_trace ds (fun r ->
                let p = (Dataset.fused r).A.Fused.access_patterns in
                let random_bytes =
                  p.read_only.random.bytes + p.write_only.random.bytes
                  + p.read_write.random.bytes
                in
                100.0
                *. (1.0
                   -. float_of_int random_bytes
                      /. float_of_int p.grand_total.bytes)));
    };
    {
      c_id = "short-runs";
      c_section = "4.2";
      c_text = "About 80% of sequential runs transfer less than 10 KB";
      c_paper = Paper.fig1_pct_runs_under_10k;
      c_unit = "%";
      c_lo = 60.0;
      c_hi = 95.0;
      c_measure = mean E.fig1_runs_under_10k;
    };
    {
      c_id = "megabyte-runs";
      c_section = "4.2";
      c_text =
        "At least 10% of all bytes move in sequential runs longer than 1 MB \
         (10x the BSD study's largest runs)";
      c_paper = Paper.fig1_pct_bytes_in_runs_over_1m;
      c_unit = "%";
      c_lo = 10.0;
      c_hi = 90.0;
      c_measure = mean E.fig1_bytes_in_runs_over_1m;
    };
    {
      c_id = "short-opens";
      c_section = "4.3";
      c_text = "About 75% of files are open less than a quarter second";
      c_paper = Paper.fig3_pct_opens_under_quarter_s;
      c_unit = "%";
      c_lo = 60.0;
      c_hi = 90.0;
      c_measure = mean E.fig3_opens_under_quarter_s;
    };
    {
      c_id = "short-file-lifetimes";
      c_section = "4.3";
      c_text = "65-80% of files live less than 30 seconds";
      c_paper = Paper.fig4_pct_files_dead_under_30s.value;
      c_unit = "%";
      c_lo = 55.0;
      c_hi = 92.0;
      c_measure = mean E.fig4_files_dead_under_30s;
    };
    {
      c_id = "byte-lifetimes-longer";
      c_section = "4.3";
      c_text =
        "Only a small fraction (4-27%) of new bytes die within 30 seconds — \
         short-lived files are short";
      c_paper = Paper.fig4_pct_bytes_dead_under_30s.value;
      c_unit = "%";
      c_lo = 3.0;
      c_hi = 40.0;
      c_measure = mean E.fig4_bytes_dead_under_30s;
    };
    {
      c_id = "cache-size";
      c_section = "5.1";
      c_text =
        "Client caches settle at about 7 MB — a quarter to a third of main \
         memory";
      c_paper = Paper.t4_avg_cache_mb;
      c_unit = "MB";
      c_lo = 3.5;
      c_hi = 10.0;
      c_measure = E.t4_avg_cache_mb;
    };
    {
      c_id = "cache-filter-ratio";
      c_section = "5.2";
      c_text = "Client caches filter out about half of the raw traffic";
      c_paper = 100.0 *. Paper.filter_ratio;
      c_unit = "% passed";
      c_lo = 35.0;
      c_hi = 70.0;
      c_measure = E.t7_filter_pct;
    };
    {
      c_id = "read-miss-ratio";
      c_section = "5.2";
      c_text =
        "Read miss ratios are ~40% — four times the BSD study's prediction, \
         because of the new large files";
      c_paper = Paper.t6_read_miss.total;
      c_unit = "%";
      c_lo = 20.0;
      c_hi = 55.0;
      c_measure = t6 read_miss;
    };
    {
      c_id = "writeback-traffic";
      c_section = "5.2";
      c_text =
        "About 90% of new bytes eventually get written through to the \
         server (only ~10% die in the cache within the 30-s delay)";
      c_paper = Paper.t6_writeback_traffic.total;
      c_unit = "%";
      c_lo = 75.0;
      c_hi = 98.0;
      c_measure = t6 (fun e -> e.writeback_traffic);
    };
    {
      c_id = "write-fetches-rare";
      c_section = "5.2";
      c_text = "Write fetches (partial writes of non-resident blocks) are rare";
      c_paper = Paper.t6_write_fetch.total;
      c_unit = "%";
      c_lo = 0.0;
      c_hi = 5.0;
      c_measure = t6 (fun e -> e.write_fetch);
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
      c_measure = (fun ds -> t6 ~migrated:true read_miss ds /. t6 read_miss ds);
    };
    {
      c_id = "paging-share";
      c_section = "5.3";
      c_text = "Paging is roughly a third of the bytes moved, raw and at the server";
      c_paper = Paper.t7_paging_pct;
      c_unit = "% of server bytes";
      c_lo = 20.0;
      c_hi = 50.0;
      c_measure = E.t7_paging_pct;
    };
    {
      c_id = "delay-cleanings";
      c_section = "5.4";
      c_text =
        "About three-fourths of dirty-block cleanings happen because the \
         30-second delay elapsed";
      c_paper = Paper.t9_delay_pct;
      c_unit = "%";
      c_lo = 60.0;
      c_hi = 99.0;
      c_measure = E.t9_delay_pct;
    };
    {
      c_id = "write-sharing-rare";
      c_section = "5.5";
      c_text =
        "Concurrent write-sharing happens on ~0.34% of file opens — rare, \
         but common enough to matter daily";
      c_paper = Paper.t10_sharing.value;
      c_unit = "% of opens";
      c_lo = 0.05;
      c_hi = 1.0;
      c_measure = mean E.t10_sharing;
    };
    {
      c_id = "recall-rate";
      c_section = "5.5";
      c_text =
        "About one open in sixty recalls dirty data from another client \
         (an upper bound; the server cannot tell if it was already flushed)";
      c_paper = Paper.t10_recall.value;
      c_unit = "% of opens";
      c_lo = 0.5;
      c_hi = 6.0;
      c_measure = mean E.t10_recall;
    };
    {
      c_id = "polling-users-affected";
      c_section = "5.5";
      c_text =
        "Under 60-second polling consistency, about half the users would \
         read stale data in a day";
      c_paper = Paper.t11_60s.users_affected_per_trace.value;
      c_unit = "% of users";
      c_lo = 15.0;
      c_hi = 70.0;
      c_measure = mean E.t11_users_affected_60s;
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
          mean E.t11_errors_per_hour_60s ds /. mean E.t11_errors_per_hour_3s ds);
    };
    {
      c_id = "consistency-no-clear-winner";
      c_section = "5.6";
      c_text =
        "The consistency mechanisms have comparable overheads: the token \
         scheme moves roughly as many bytes as Sprite's simple disabling";
      c_paper = Paper.t12_token.bytes_ratio;
      c_unit = "x bytes vs Sprite";
      c_lo = 0.5;
      c_hi = 3.0;
      c_measure = mean E.t12_token_bytes_ratio;
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
          float_of_int r /. float_of_int w);
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
          (if Float.is_nan r.measured then "n/a"
           else Printf.sprintf "%.2f" r.measured);
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
