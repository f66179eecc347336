module Table = Dfs_util.Table
module Cdf = Dfs_util.Cdf
module A = Dfs_analysis
module C = Dfs_consistency
module Traffic = Dfs_sim.Traffic
module Bc = Dfs_cache.Block_cache

type t = {
  id : string;
  title : string;
  description : string;
  run : Dataset.t -> string;
}

(* -- small rendering helpers ------------------------------------------------- *)

let min_l xs = List.fold_left Float.min infinity xs

let max_l xs = List.fold_left Float.max neg_infinity xs

(* "8.0 (2.1-9.4)": mean with min-max across traces *)
let across ?(digits = 2) xs =
  match xs with
  | [] -> "n/a"
  | [ x ] -> Printf.sprintf "%.*f" digits x
  | _ ->
    Printf.sprintf "%.*f (%.*f-%.*f)" digits (Dataset.mean xs) digits (min_l xs)
      digits (max_l xs)

let paper_range ?(digits = 2) (r : Paper.range) =
  Printf.sprintf "%.*f (%.*f-%.*f)" digits r.value digits r.lo digits r.hi

let scale_note (ds : Dataset.t) =
  match ds.scale with
  | None -> "Replayed trace: counts cover the replayed span, not 24 hours."
  | Some scale when scale >= 0.999 -> "Full-length (24-hour) traces."
  | Some scale ->
    Printf.sprintf
      "Traces scaled to %.0f%% of 24 h (busy daytime window); rates and \
       distributions are comparable, absolute per-day counts are not."
      (scale *. 100.0)

let mb = float_of_int Dfs_util.Units.mib

(* One value per trace, in run order, from each run's fused pass. *)
let per_fused (ds : Dataset.t) f = Dataset.per_trace ds (fun r -> f (Dataset.fused r))

(* -- Table 1 ------------------------------------------------------------------ *)

let table1 =
  let run (ds : Dataset.t) =
    let tbl =
      Table.create
        ~caption:"Table 1. Overall trace statistics (simulated traces)."
        ~columns:
          ([ ("Statistic", Table.Left) ]
          @ List.map
              (fun (r : Dataset.run) -> (r.preset.name, Table.Right))
              ds.runs)
        ()
    in
    let stats = per_fused ds (fun f -> f.A.Fused.stats) in
    let row label f fmt =
      Table.add_row tbl (label :: List.map (fun s -> fmt (f s)) stats)
    in
    let fi = string_of_int and f1 = Printf.sprintf "%.1f" in
    row "Trace duration (hours)" (fun s -> s.A.Trace_stats.duration_hours) f1;
    row "Different users"
      (fun s -> float_of_int s.A.Trace_stats.different_users)
      (fun x -> fi (int_of_float x));
    row "Users of migration"
      (fun s -> float_of_int s.A.Trace_stats.users_of_migration)
      (fun x -> fi (int_of_float x));
    row "Mbytes read from files" (fun s -> s.A.Trace_stats.mbytes_read_files) f1;
    row "Mbytes written to files"
      (fun s -> s.A.Trace_stats.mbytes_written_files)
      f1;
    row "Mbytes read from directories"
      (fun s -> s.A.Trace_stats.mbytes_read_dirs)
      f1;
    let irow label f =
      Table.add_row tbl (label :: List.map (fun s -> fi (f s)) stats)
    in
    irow "Open events" (fun s -> s.A.Trace_stats.open_events);
    irow "Close events" (fun s -> s.A.Trace_stats.close_events);
    irow "Reposition events" (fun s -> s.A.Trace_stats.reposition_events);
    irow "Delete events" (fun s -> s.A.Trace_stats.delete_events);
    irow "Truncate events" (fun s -> s.A.Trace_stats.truncate_events);
    irow "Shared read events" (fun s -> s.A.Trace_stats.shared_read_events);
    irow "Shared write events" (fun s -> s.A.Trace_stats.shared_write_events);
    Table.add_note tbl (scale_note ds);
    Table.add_note tbl
      "Paper (24 h): 33-50 users, 6-11 using migration, 822-17754 MB read, \
       ~116k-275k opens; traces 3-4 dominated by two large-file users.";
    Table.render tbl
  in
  {
    id = "table1";
    title = "Overall trace statistics";
    description =
      "Eight simulated 24-hour traces mirroring Table 1: users, megabytes \
       moved, and event counts (traces 3-4 include the two large-file \
       class-project users).";
    run;
  }

(* -- Table 2 ------------------------------------------------------------------- *)

(* Average KB/s per active user, per trace, from one of the fused pass's
   activity reports. *)
let user_tput activity ds =
  per_fused ds (fun f -> (activity f).A.Activity.avg_user_throughput)

let t2_user_tput = user_tput (fun f -> f.A.Fused.activity_10min)

let t2_migrated_user_tput = user_tput (fun f -> f.A.Fused.activity_10min_migrated)

let table2 =
  let run (ds : Dataset.t) =
    let render ~label ~all ~mig ~(paper_all : Paper.activity_col)
        ~(paper_mig : Paper.activity_col) ~bsd_users ~bsd_tput =
      let tbl =
        Table.create
          ~caption:(Printf.sprintf "Table 2 (%s intervals)." label)
          ~columns:
            [
              ("Measure", Table.Left);
              ("All users", Table.Right);
              ("Paper all", Table.Right);
              ("Migrated", Table.Right);
              ("Paper migrated", Table.Right);
              ("BSD study", Table.Right);
            ]
          ()
      in
      (* one value per trace from the fused pass's report [activity] *)
      let fcol f activity = per_fused ds (fun x -> f (activity x)) in
      let max_active activity =
        Printf.sprintf "%.0f"
          (max_l (fcol (fun (r : A.Activity.report) -> float_of_int r.max_active_users) activity))
      in
      Table.add_row tbl
        [
          "Maximum number of active users";
          max_active all;
          Printf.sprintf "%.0f" paper_all.max_active;
          max_active mig;
          Printf.sprintf "%.0f" paper_mig.max_active;
          "NA";
        ];
      let avg_active activity =
        Printf.sprintf "%.2f (%.2f)"
          (Dataset.mean
             (fcol (fun (r : A.Activity.report) -> r.avg_active_users) activity))
          (Dataset.mean
             (fcol (fun (r : A.Activity.report) -> r.sd_active_users) activity))
      in
      Table.add_row tbl
        [
          "Average number of active users";
          avg_active all;
          Printf.sprintf "%.2f (%.2f)" paper_all.avg_active paper_all.sd_active;
          avg_active mig;
          Printf.sprintf "%.2f (%.2f)" paper_mig.avg_active paper_mig.sd_active;
          Printf.sprintf "%.1f" bsd_users;
        ];
      let avg_tput activity =
        Printf.sprintf "%.1f (%.0f)"
          (Dataset.mean (user_tput activity ds))
          (Dataset.mean
             (fcol (fun (r : A.Activity.report) -> r.sd_user_throughput) activity))
      in
      Table.add_row tbl
        [
          "Avg throughput / active user (KB/s)";
          avg_tput all;
          Printf.sprintf "%.1f (%.0f)" paper_all.avg_tput paper_all.sd_tput;
          avg_tput mig;
          Printf.sprintf "%.1f (%.0f)" paper_mig.avg_tput paper_mig.sd_tput;
          Printf.sprintf "%.2f" bsd_tput;
        ];
      let peak f activity = Printf.sprintf "%.0f" (max_l (fcol f activity)) in
      Table.add_row tbl
        [
          "Peak user throughput (KB/s)";
          peak (fun (r : A.Activity.report) -> r.peak_user_throughput) all;
          Printf.sprintf "%.0f" paper_all.peak_user;
          peak (fun (r : A.Activity.report) -> r.peak_user_throughput) mig;
          Printf.sprintf "%.0f" paper_mig.peak_user;
          "NA";
        ];
      Table.add_row tbl
        [
          "Peak total throughput (KB/s)";
          peak (fun (r : A.Activity.report) -> r.peak_total_throughput) all;
          Printf.sprintf "%.0f" paper_all.peak_total;
          peak (fun (r : A.Activity.report) -> r.peak_total_throughput) mig;
          Printf.sprintf "%.0f" paper_mig.peak_total;
          "NA";
        ];
      Table.render tbl
    in
    render ~label:"10-minute"
      ~all:(fun f -> f.A.Fused.activity_10min)
      ~mig:(fun f -> f.A.Fused.activity_10min_migrated)
      ~paper_all:Paper.t2_all_10min ~paper_mig:Paper.t2_mig_10min
      ~bsd_users:Paper.t2_bsd_10min_avg_users ~bsd_tput:Paper.t2_bsd_10min_tput
    ^ "\n"
    ^ render ~label:"10-second"
        ~all:(fun f -> f.A.Fused.activity_10s)
        ~mig:(fun f -> f.A.Fused.activity_10s_migrated)
        ~paper_all:Paper.t2_all_10s ~paper_mig:Paper.t2_mig_10s
        ~bsd_users:Paper.t2_bsd_10s_avg_users ~bsd_tput:Paper.t2_bsd_10s_tput
    ^ "\n" ^ scale_note ds ^ "\n"
  in
  {
    id = "table2";
    title = "User activity and burst rates";
    description =
      "Active users and per-user throughput over 10-minute and 10-second \
       intervals, all users vs. users with migrated processes, with the \
       paper's and the BSD study's numbers alongside.";
    run;
  }

(* -- Table 3 -------------------------------------------------------------------- *)

let table3 =
  let run (ds : Dataset.t) =
    let reports = per_fused ds (fun f -> f.A.Fused.access_patterns) in
    let tbl =
      Table.create ~caption:"Table 3. File access patterns (percent)."
        ~columns:
          [
            ("File usage", Table.Left);
            ("Measure", Table.Left);
            ("Measured", Table.Right);
            ("Paper", Table.Right);
          ]
        ()
    in
    let cls_row name get (paper : Paper.t3_class) =
      let acc = List.map (fun r -> A.Access_patterns.pct_accesses r (get r)) reports in
      let byt = List.map (fun r -> A.Access_patterns.pct_bytes r (get r)) reports in
      Table.add_row tbl
        [ name; "% of accesses"; across ~digits:1 acc; paper_range ~digits:0 paper.accesses ];
      Table.add_row tbl
        [ ""; "% of bytes"; across ~digits:1 byt; paper_range ~digits:0 paper.bytes ];
      let seq_row label seq p_acc p_byt =
        let a =
          List.map
            (fun r -> A.Access_patterns.seq_pct_accesses (get r) seq)
            reports
        in
        let b =
          List.map (fun r -> A.Access_patterns.seq_pct_bytes (get r) seq) reports
        in
        Table.add_row tbl
          [ ""; label ^ " (by accesses)"; across ~digits:1 a; paper_range ~digits:0 p_acc ];
        Table.add_row tbl
          [ ""; label ^ " (by bytes)"; across ~digits:1 b; paper_range ~digits:0 p_byt ]
      in
      seq_row "whole-file" A.Session.Whole_file paper.whole_by_acc
        paper.whole_by_bytes;
      seq_row "other sequential" A.Session.Other_sequential paper.seq_by_acc
        paper.seq_by_bytes;
      seq_row "random" A.Session.Random paper.rand_by_acc paper.rand_by_bytes;
      Table.add_separator tbl
    in
    cls_row "Read-only" (fun r -> r.A.Access_patterns.read_only)
      Paper.t3_read_only;
    cls_row "Write-only" (fun r -> r.A.Access_patterns.write_only)
      Paper.t3_write_only;
    cls_row "Read/write" (fun r -> r.A.Access_patterns.read_write)
      Paper.t3_read_write;
    Table.add_note tbl "Measured cells: mean (min-max) across the traces.";
    Table.render tbl
  in
  {
    id = "table3";
    title = "File access patterns";
    description =
      "Read-only / write-only / read-write accesses split by whole-file, \
       other-sequential and random transfer, by accesses and by bytes.";
    run;
  }

(* -- figures ----------------------------------------------------------------------- *)

(* One CDF figure: a table of every series pooled over the traces at
   [table_xs], then a chart of them at [chart_xs].  Glyphs go by series
   index. *)
let render_cdf_figure ~caption ~x_header ~x_fmt ~table_xs ~chart_title
    ~chart_x_label ~chart_xs series =
  let tbl =
    Table.create ~caption
      ~columns:
        ((x_header, Table.Left)
        :: List.map (fun (name, _) -> (name, Table.Right)) series)
      ()
  in
  Array.iter
    (fun x ->
      Table.add_row tbl
        (x_fmt x
        :: List.map
             (fun (_, parts) ->
               Printf.sprintf "%.1f"
                 (100.0 *. Cdf.fraction_below_pooled parts x))
             series))
    table_xs;
  let glyphs = [| '*'; 'o'; '+'; 'x' |] in
  let chart =
    Dfs_util.Chart.render ~title:chart_title ~x_label:chart_x_label
      (List.mapi
         (fun i (name, parts) ->
           Dfs_util.Chart.of_cdf ~name
             ~glyph:glyphs.(i mod Array.length glyphs)
             ~xs:chart_xs parts)
         series)
  in
  Table.render tbl ^ chart

let seconds x = Printf.sprintf "%gs" x

let pct_over cdf x = 100.0 *. (1.0 -. Cdf.fraction_below cdf x)

let fig1_runs_under_10k ds =
  per_fused ds (fun f ->
      100.0 *. Cdf.fraction_below f.A.Fused.run_length.by_runs A.Run_length.short_run)

let fig1_bytes_in_runs_over_1m ds =
  per_fused ds (fun f -> pct_over f.A.Fused.run_length.by_bytes A.Run_length.long_run)

let fig1 =
  let run (ds : Dataset.t) =
    let per = per_fused ds (fun f -> f.A.Fused.run_length) in
    render_cdf_figure
      ~caption:
        "Figure 1. Sequential run length, cumulative % (pooled over traces)."
      ~x_header:"Run length" ~x_fmt:Table.bytes ~table_xs:A.Run_length.byte_xs
      ~chart_title:"cumulative %: Run length" ~chart_x_label:"Run length"
      ~chart_xs:A.Run_length.byte_xs
      [
        ("% of runs", List.map (fun (f : A.Run_length.t) -> f.by_runs) per);
        ("% of bytes", List.map (fun (f : A.Run_length.t) -> f.by_bytes) per);
      ]
    ^ Printf.sprintf
        "runs under 10 KB: %s%% (paper ~%.0f%%); bytes in runs over 1 MB: \
         %s%% (paper: at least %.0f%%)\n"
        (across ~digits:1 (fig1_runs_under_10k ds))
        Paper.fig1_pct_runs_under_10k
        (across ~digits:1 (fig1_bytes_in_runs_over_1m ds))
        Paper.fig1_pct_bytes_in_runs_over_1m
  in
  {
    id = "fig1";
    title = "Sequential run lengths";
    description =
      "CDF of sequential run lengths weighted by runs and by bytes; most \
       runs are short but the longest runs carry much of the data.";
    run;
  }

let fig2 =
  let run (ds : Dataset.t) =
    let per = per_fused ds (fun f -> f.A.Fused.file_size) in
    render_cdf_figure
      ~caption:"Figure 2. Dynamic file sizes at close, cumulative %."
      ~x_header:"File size" ~x_fmt:Table.bytes ~table_xs:A.Run_length.byte_xs
      ~chart_title:"cumulative %: File size" ~chart_x_label:"File size"
      ~chart_xs:A.Run_length.byte_xs
      [
        ("% of accesses", List.map (fun (f : A.File_size.t) -> f.by_files) per);
        ("% of bytes", List.map (fun (f : A.File_size.t) -> f.by_bytes) per);
      ]
    ^ Printf.sprintf
        "bytes to/from files of 1 MB or more: %s%% (paper trace 1: ~%.0f%%)\n"
        (across ~digits:1
           (List.map (fun (f : A.File_size.t) -> pct_over f.by_bytes A.File_size.large_file) per))
        Paper.fig2_pct_bytes_from_files_over_1m
  in
  {
    id = "fig2";
    title = "Dynamic file sizes";
    description =
      "CDF of file sizes measured at close, by accesses and by bytes \
       transferred; small files dominate accesses, large files dominate \
       bytes.";
    run;
  }

let fig3_opens_under_quarter_s ds =
  per_fused ds (fun f ->
      100.0 *. A.Open_time.fraction_under f.A.Fused.open_time A.Open_time.short_open)

let fig3 =
  let run (ds : Dataset.t) =
    render_cdf_figure
      ~caption:"Figure 3. File open durations, cumulative % (pooled)."
      ~x_header:"Open time" ~x_fmt:seconds ~table_xs:A.Open_time.table_xs
      ~chart_title:"cumulative %: open time (seconds)"
      ~chart_x_label:"open time (s)" ~chart_xs:A.Open_time.chart_xs
      [ ("% of opens", per_fused ds (fun f -> f.A.Fused.open_time.by_opens)) ]
    ^ Printf.sprintf "opens under 0.25 s: %s%% (paper: ~%.0f%%)\n"
        (across ~digits:1 (fig3_opens_under_quarter_s ds))
        Paper.fig3_pct_opens_under_quarter_s
  in
  {
    id = "fig3";
    title = "File open times";
    description =
      "CDF of how long files stay open; the paper found ~75% of opens \
       last under a quarter of a second.";
    run;
  }

let fig4_files_dead_under_30s ds =
  per_fused ds (fun f ->
      100.0 *. A.Lifetime.fraction_files_under f.A.Fused.lifetime A.Lifetime.short_life)

let fig4_bytes_dead_under_30s ds =
  per_fused ds (fun f ->
      100.0 *. A.Lifetime.fraction_bytes_under f.A.Fused.lifetime A.Lifetime.short_life)

let fig4 =
  let run (ds : Dataset.t) =
    let per = per_fused ds (fun f -> f.A.Fused.lifetime) in
    render_cdf_figure ~caption:"Figure 4. File lifetimes, cumulative % (pooled)."
      ~x_header:"Lifetime" ~x_fmt:seconds ~table_xs:A.Lifetime.table_xs
      ~chart_title:"cumulative %: lifetime (seconds)" ~chart_x_label:"lifetime (s)"
      ~chart_xs:A.Lifetime.chart_xs
      [
        ("% of files", List.map (fun (f : A.Lifetime.t) -> f.by_files) per);
        ("% of bytes", List.map (fun (f : A.Lifetime.t) -> f.by_bytes) per);
      ]
    ^ Printf.sprintf
        "files dead within 30 s: %s%% (paper: %s); bytes dead within 30 s: \
         %s%% (paper: %s)\n"
        (across ~digits:1 (fig4_files_dead_under_30s ds))
        (paper_range ~digits:0 Paper.fig4_pct_files_dead_under_30s)
        (across ~digits:1 (fig4_bytes_dead_under_30s ds))
        (paper_range ~digits:0 Paper.fig4_pct_bytes_dead_under_30s)
  in
  {
    id = "fig4";
    title = "File lifetimes";
    description =
      "CDF of file lifetimes at deletion/truncation, by files and by \
       bytes; most files die young but most bytes live longer.";
    run;
  }

(* -- Table 4 -------------------------------------------------------------------------- *)

let cache_sizes ds =
  A.Cache_stats.cache_sizes (Dataset.per_trace ds (fun r -> Dfs_sim.Cluster.counters r.cluster))

(* Table 4's first cell from its report, which is costly enough to
   compute once per rendering. *)
let avg_cache_mb (report : A.Cache_stats.size_report) = report.avg_bytes /. mb

let t4_avg_cache_mb ds = avg_cache_mb (cache_sizes ds)

let table4 =
  let run (ds : Dataset.t) =
    let report = cache_sizes ds in
    let tbl =
      Table.create ~caption:"Table 4. Client cache sizes."
        ~columns:
          [ ("Measure", Table.Left); ("Measured", Table.Right); ("Paper", Table.Right) ]
        ()
    in
    Table.add_row tbl
      [
        "Average cache size (MB)";
        Printf.sprintf "%.2f (sd %.2f)" (avg_cache_mb report) (report.sd_bytes /. mb);
        Printf.sprintf "~%.1f" Paper.t4_avg_cache_mb;
      ];
    Table.add_row tbl
      [
        "15-min size change avg (KB)";
        Printf.sprintf "%.0f (sd %.0f, max %.0f)" report.change_15min.avg_kb
          report.change_15min.sd_kb report.change_15min.max_kb;
        Printf.sprintf "%.0f (sd %.0f)" Paper.t4_change_15min_avg_kb
          Paper.t4_change_15min_sd_kb;
      ];
    Table.add_row tbl
      [
        "60-min size change avg (KB)";
        Printf.sprintf "%.0f (sd %.0f, max %.0f)" report.change_60min.avg_kb
          report.change_60min.sd_kb report.change_60min.max_kb;
        Printf.sprintf "%.0f (sd %.0f)" Paper.t4_change_60min_avg_kb
          Paper.t4_change_60min_sd_kb;
      ];
    Table.add_note tbl
      (Printf.sprintf "%d counter samples; active-interval screening applied."
         report.samples_used);
    Table.render tbl
  in
  {
    id = "table4";
    title = "Client cache sizes";
    description =
      "Average client cache size and its variation over 15- and 60-minute \
       windows, from the sampled kernel counters.";
    run;
  }

(* -- Tables 5 and 7 --------------------------------------------------------------------- *)

let traffic_table ~caption traffic =
  let rows = A.Cache_stats.traffic_rows traffic in
  let tbl =
    Table.create ~caption
      ~columns:
        [
          ("Traffic type", Table.Left);
          ("Bytes read (%)", Table.Right);
          ("Bytes written (%)", Table.Right);
          ("Total (%)", Table.Right);
        ]
      ()
  in
  List.iter
    (fun (r : A.Cache_stats.traffic_row) ->
      Table.add_row tbl
        [
          Traffic.category_name r.category;
          Printf.sprintf "%.1f" r.read_pct;
          Printf.sprintf "%.1f" r.write_pct;
          Printf.sprintf "%.1f" r.total_pct;
        ])
    rows;
  Table.add_separator tbl;
  let total_read = List.fold_left (fun a (r : A.Cache_stats.traffic_row) -> a +. r.read_pct) 0.0 rows in
  let total_write = List.fold_left (fun a (r : A.Cache_stats.traffic_row) -> a +. r.write_pct) 0.0 rows in
  Table.add_row tbl
    [
      "Total";
      Printf.sprintf "%.1f" total_read;
      Printf.sprintf "%.1f" total_write;
      "100.0";
    ];
  (tbl, rows)

(* The percent of the tap's bytes in the given categories. *)
let share categories rows =
  List.fold_left
    (fun acc (r : A.Cache_stats.traffic_row) ->
      if List.mem r.category categories then acc +. r.total_pct else acc)
    0.0 rows

let paging_pct rows = share [ Traffic.Paging_cached; Traffic.Paging_backing ] rows

let t7_paging_pct ds = paging_pct (A.Cache_stats.traffic_rows (Dataset.server_traffic ds))

let t7_filter_pct ds =
  100.0
  *. A.Cache_stats.filter_ratio ~raw:(Dataset.raw_traffic ds)
       ~server:(Dataset.server_traffic ds)

let table5 =
  let run (ds : Dataset.t) =
    let traffic = Dataset.raw_traffic ds in
    let tbl, rows =
      traffic_table
        ~caption:
          "Table 5. Traffic sources: raw file and paging traffic presented \
           to the client OS (percent of bytes)."
        traffic
    in
    Table.add_note tbl
      (Printf.sprintf
         "paging share: %.1f%% (paper ~%.0f%%); uncacheable share: %.1f%% \
          (paper ~%.0f%%); reads %.1f%% (paper %.1f%%)"
         (paging_pct rows)
         Paper.t5_paging_pct
         (100.0 *. (1.0 -. A.Cache_stats.cacheable_fraction traffic))
         Paper.t5_uncacheable_pct
         (100.0
         *. Dfs_util.Stats.ratio
              (float_of_int (Traffic.total_read traffic))
              (float_of_int (Traffic.total traffic)))
         Paper.t5_reads_pct);
    Table.render tbl
  in
  {
    id = "table5";
    title = "Traffic sources (raw client traffic)";
    description =
      "Raw application traffic by category before any caching: cacheable \
       file data and paging, plus uncacheable write-shared, directory and \
       backing-file traffic.";
    run;
  }

let table7 =
  let run (ds : Dataset.t) =
    let tbl, rows =
      traffic_table
        ~caption:
          "Table 7. Server traffic after filtering by the client caches \
           (percent of bytes)."
        (Dataset.server_traffic ds)
    in
    Table.add_note tbl
      (Printf.sprintf
         "paging share: %.1f%% (paper ~%.0f%%); write-shared: %.1f%% (paper \
          ~%.0f%%); cache filter ratio: %.0f%% of raw bytes reach servers \
          (paper ~%.0f%%)"
         (t7_paging_pct ds) Paper.t7_paging_pct
         (share [ Traffic.Shared ] rows)
         Paper.t7_shared_pct (t7_filter_pct ds)
         (100.0 *. Paper.filter_ratio));
    Table.render tbl
  in
  {
    id = "table7";
    title = "Server traffic";
    description =
      "Traffic reaching the servers after the client caches have filtered \
       it, by category, plus the overall cache filter ratio.";
    run;
  }

(* -- Table 6 ------------------------------------------------------------------------------ *)

let t6_effectiveness ~migrated ds =
  A.Cache_stats.effectiveness (Dataset.all_cache_stats ds) ~migrated

let table6 =
  let run (ds : Dataset.t) =
    let all = t6_effectiveness ~migrated:false ds in
    let mig = t6_effectiveness ~migrated:true ds in
    let tbl =
      Table.create
        ~caption:"Table 6. Client cache effectiveness (percent; smaller is better)."
        ~columns:
          [
            ("Ratio", Table.Left);
            ("Client total", Table.Right);
            ("Paper total", Table.Right);
            ("Client migrated", Table.Right);
            ("Paper migrated", Table.Right);
          ]
        ()
    in
    let fmt (r : A.Cache_stats.ratio) =
      Printf.sprintf "%.1f (%.1f)" r.mean_pct r.sd_pct
    in
    let fmt_paper (p : Paper.t6_row) which =
      match which with
      | `Total -> Printf.sprintf "%.1f (%.1f)" p.total p.total_sd
      | `Migrated ->
        if Float.is_nan p.migrated then "NA"
        else Printf.sprintf "%.1f (%.1f)" p.migrated p.migrated_sd
    in
    let row label get paper =
      Table.add_row tbl
        [
          label;
          fmt (get all);
          fmt_paper paper `Total;
          (if String.equal label "Writeback traffic" then "NA" else fmt (get mig));
          fmt_paper paper `Migrated;
        ]
    in
    row "File read misses"
      (fun (e : A.Cache_stats.effectiveness) -> e.read_miss)
      Paper.t6_read_miss;
    row "File read miss traffic"
      (fun (e : A.Cache_stats.effectiveness) -> e.read_miss_traffic)
      Paper.t6_read_miss_traffic;
    row "Writeback traffic"
      (fun (e : A.Cache_stats.effectiveness) -> e.writeback_traffic)
      Paper.t6_writeback_traffic;
    row "Write fetches"
      (fun (e : A.Cache_stats.effectiveness) -> e.write_fetch)
      Paper.t6_write_fetch;
    row "Paging read misses"
      (fun (e : A.Cache_stats.effectiveness) -> e.paging_read_miss)
      Paper.t6_paging_read_miss;
    Table.render tbl
  in
  {
    id = "table6";
    title = "Client cache effectiveness";
    description =
      "Read miss ratios, writeback traffic, write fetches, and paging \
       misses per client cache, all processes vs. migrated processes.";
    run;
  }

(* -- Tables 8 and 9 -------------------------------------------------------------------------- *)

let reason_table ~caption ~age_unit rows paper_rows =
  let tbl =
    Table.create ~caption
      ~columns:
        [
          ("Reason", Table.Left);
          ("Blocks (%)", Table.Right);
          (Printf.sprintf "Age (%s)" age_unit, Table.Right);
          ("Paper blocks (%)", Table.Right);
          ("Count", Table.Right);
        ]
      ()
  in
  List.iter
    (fun (r : A.Cache_stats.reason_row) ->
      let age =
        if String.equal age_unit "min" then r.age_mean /. 60.0 else r.age_mean
      in
      let paper =
        match List.assoc_opt r.r_label paper_rows with
        | Some p -> Printf.sprintf "%.1f" p
        | None -> "-"
      in
      Table.add_row tbl
        [
          r.r_label;
          Printf.sprintf "%.1f" r.blocks_pct;
          Printf.sprintf "%.1f" age;
          paper;
          string_of_int r.count;
        ])
    rows;
  Table.render tbl

let table8 =
  let run (ds : Dataset.t) =
    let stats = Dataset.all_cache_stats ds in
    let rows = A.Cache_stats.replacements stats in
    reason_table
      ~caption:
        "Table 8. Cache block replacement: what the freed page was used \
         for, and how long the block had been unreferenced."
      ~age_unit:"min" rows
      [
        (Bc.replace_reason_name Bc.Replace_for_block, Paper.t8_for_block_pct);
        (Bc.replace_reason_name Bc.Replace_to_vm, Paper.t8_to_vm_pct);
      ]
    ^ Printf.sprintf "paper ages: %.0f min (file block), %.0f min (VM page)\n"
        Paper.t8_for_block_age_min Paper.t8_to_vm_age_min
  in
  {
    id = "table8";
    title = "Cache block replacement";
    description =
      "Why cache pages leave: reused for another file block vs. given to \
       the VM system, with ages since last reference.";
    run;
  }

let cleanings ds = A.Cache_stats.cleanings (Dataset.all_cache_stats ds)

let t9_delay_pct ds =
  let delay = Bc.clean_reason_name Bc.Clean_delay in
  Option.fold ~none:nan
    ~some:(fun (r : A.Cache_stats.reason_row) -> r.blocks_pct)
    (List.find_opt
       (fun (r : A.Cache_stats.reason_row) -> String.equal r.r_label delay)
       (cleanings ds))

let table9 =
  let run (ds : Dataset.t) =
    reason_table
      ~caption:
        "Table 9. Dirty block cleaning: why dirty data was written to the \
         server, with time since the block's last write."
      ~age_unit:"s" (cleanings ds)
      (List.map
         (fun (reason, pct) -> (Bc.clean_reason_name reason, pct))
         [
           (Bc.Clean_delay, Paper.t9_delay_pct);
           (Bc.Clean_fsync, Paper.t9_fsync_pct);
           (Bc.Clean_recall, Paper.t9_recall_pct);
           (Bc.Clean_vm, Paper.t9_vm_pct);
         ])
  in
  {
    id = "table9";
    title = "Dirty block cleaning";
    description =
      "Reasons dirty blocks get written back: the 30-second delay, \
       application fsync, server recalls, or pages leaving for the VM \
       system.";
    run;
  }

(* -- Table 10 ----------------------------------------------------------------------------------- *)

let t10_sharing ds =
  per_fused ds (fun f -> A.Consistency_stats.sharing_pct f.A.Fused.consistency)

let t10_recall ds =
  per_fused ds (fun f -> A.Consistency_stats.recall_pct f.A.Fused.consistency)

let table10 =
  let run (ds : Dataset.t) =
    let tbl =
      Table.create
        ~caption:
          "Table 10. Consistency actions (percent of file opens, excluding \
           directories)."
        ~columns:
          [ ("Action", Table.Left); ("Measured", Table.Right); ("Paper", Table.Right) ]
        ()
    in
    Table.add_row tbl
      [
        "Concurrent write-sharing";
        across ~digits:2 (t10_sharing ds);
        paper_range ~digits:2 Paper.t10_sharing;
      ];
    Table.add_row tbl
      [
        "Server recall";
        across ~digits:2 (t10_recall ds);
        paper_range ~digits:2 Paper.t10_recall;
      ];
    Table.add_note tbl
      "Recall counts are upper bounds: the server does not track whether \
       the last writer already flushed (same as the paper).";
    Table.render tbl
  in
  {
    id = "table10";
    title = "Consistency action frequency";
    description =
      "How often opens trigger concurrent write-sharing (cache disabling) \
       or a recall of dirty data from another client.";
    run;
  }

(* -- Table 11 ------------------------------------------------------------------------------------ *)

let errors_per_hour polling ds =
  per_fused ds (fun f -> (polling f).C.Polling.errors_per_hour)

let users_affected polling ds =
  per_fused ds (fun f -> C.Polling.pct_users_affected (polling f))

let polling_60s f = f.A.Fused.polling_60s

let polling_3s f = f.A.Fused.polling_3s

let t11_errors_per_hour_60s = errors_per_hour polling_60s

let t11_errors_per_hour_3s = errors_per_hour polling_3s

let t11_users_affected_60s = users_affected polling_60s

let table11 =
  let run (ds : Dataset.t) =
    let render ~interval ~polling ~(paper : Paper.t11_col) =
      let reports : C.Polling.report list = per_fused ds polling in
      let all_affected =
        List.fold_left
          (fun acc (r : C.Polling.report) ->
            Dfs_trace.Ids.User.Set.union acc r.affected_user_ids)
          Dfs_trace.Ids.User.Set.empty reports
      in
      let all_users =
        Dfs_trace.Ids.User.Set.cardinal
          (List.fold_left
             (fun acc (r : C.Polling.report) ->
               Dfs_trace.Ids.User.Set.union acc r.seen_user_ids)
             Dfs_trace.Ids.User.Set.empty reports)
      in
      let tbl =
        Table.create
          ~caption:
            (Printf.sprintf
               "Table 11. Stale data errors, %.0f-second refresh interval."
               interval)
          ~columns:
            [ ("Measure", Table.Left); ("Measured", Table.Right); ("Paper", Table.Right) ]
          ()
      in
      Table.add_row tbl
        [
          "Average errors per hour";
          across ~digits:2 (errors_per_hour polling ds);
          paper_range ~digits:2 paper.errors_per_hour;
        ];
      Table.add_row tbl
        [
          "% users affected per trace";
          across ~digits:1 (users_affected polling ds);
          paper_range ~digits:1 paper.users_affected_per_trace;
        ];
      Table.add_row tbl
        [
          "% users affected over all traces";
          Printf.sprintf "%.1f"
            (if all_users = 0 then 0.0
             else
               100.0
               *. float_of_int (Dfs_trace.Ids.User.Set.cardinal all_affected)
               /. float_of_int all_users);
          Printf.sprintf "%.1f" paper.users_affected_all;
        ];
      Table.add_row tbl
        [
          "% file opens with error";
          across ~digits:3 (List.map C.Polling.pct_opens_with_error reports);
          paper_range ~digits:3 paper.opens_with_error;
        ];
      Table.add_row tbl
        [
          "% migrated opens with error";
          across ~digits:3
            (List.map C.Polling.pct_migrated_opens_with_error reports);
          paper_range ~digits:3 paper.migrated_opens_with_error;
        ];
      Table.render tbl
    in
    render ~interval:60.0 ~polling:polling_60s ~paper:Paper.t11_60s
    ^ "\n"
    ^ render ~interval:3.0 ~polling:polling_3s ~paper:Paper.t11_3s
  in
  {
    id = "table11";
    title = "Stale data errors under polling consistency";
    description =
      "Simulation of an NFS-style polling scheme at 60-second and 3-second \
       refresh intervals: how often users would see stale data without \
       Sprite's consistency guarantee.";
    run;
  }

(* -- Table 12 ------------------------------------------------------------------------------------- *)

(* One mechanism's ratios to demand, per trace with write-sharing:
   short scaled traces can have none at all, and they carry no
   information about the mechanisms. *)
let t12_ratios mechanism (ds : Dataset.t) =
  List.filter_map
    (fun r ->
      let o = (Dataset.fused r).A.Fused.overhead in
      if o.demand_bytes = 0 || o.demand_requests = 0 then None
      else
        Some
          (C.Overhead.ratios ~demand_bytes:o.demand_bytes
             ~demand_requests:o.demand_requests (mechanism o)))
    ds.runs

let t12_token_bytes_ratio ds =
  List.map
    (fun (r : C.Overhead.ratios) -> r.bytes_ratio)
    (t12_ratios (fun o -> o.A.Fused.token) ds)

let table12 =
  let run (ds : Dataset.t) =
    let tbl =
      Table.create
        ~caption:
          "Table 12. Cache consistency overhead for write-shared files \
           (ratios to application demand)."
        ~columns:
          [
            ("Mechanism", Table.Left);
            ("Bytes ratio", Table.Right);
            ("RPC ratio", Table.Right);
            ("Paper bytes", Table.Right);
            ("Paper RPCs", Table.Right);
          ]
        ()
    in
    let row name mechanism (paper : Paper.t12_row) =
      let per = t12_ratios mechanism ds in
      let b = List.map (fun (r : C.Overhead.ratios) -> r.bytes_ratio) per in
      let c = List.map (fun (r : C.Overhead.ratios) -> r.rpc_ratio) per in
      Table.add_row tbl
        [
          name;
          across ~digits:2 b;
          across ~digits:2 c;
          Printf.sprintf "%.2f" paper.bytes_ratio;
          Printf.sprintf "%.2f" paper.rpc_ratio;
        ]
    in
    row "Sprite (disable caching)" (fun o -> o.A.Fused.sprite) Paper.t12_sprite;
    row "Sprite modified (re-enable)" (fun o -> o.A.Fused.sprite_modified)
      Paper.t12_modified;
    row "Token-based" (fun o -> o.A.Fused.token) Paper.t12_token;
    Table.add_note tbl
      "Demand = bytes/requests applications made to write-shared files; \
       Sprite passes them through exactly, so its ratios are 1.00 by \
       construction.";
    Table.render tbl
  in
  {
    id = "table12";
    title = "Cache consistency overhead";
    description =
      "The three consistency mechanisms (Sprite, modified Sprite, \
       token-based) simulated over the shared-file event streams, charged \
       in bytes and RPCs against application demand.";
    run;
  }

(* Each experiment rendering is a wall-clock profiler span, so a profile
   of `all` attributes analysis time table-by-table. *)
let instrument e =
  { e with run = (fun ds -> Dfs_obs.Profiler.span ~cat:"experiment" e.id (fun () -> e.run ds)) }

let all =
  List.map instrument
  [
    table1;
    table2;
    table3;
    fig1;
    fig2;
    fig3;
    fig4;
    table4;
    table5;
    table6;
    table7;
    table8;
    table9;
    table10;
    table11;
    table12;
  ]

let find id = List.find_opt (fun e -> String.equal e.id id) all

let ids = List.map (fun e -> e.id) all
