module Counters = Dfs_sim.Counters
module Traffic = Dfs_sim.Traffic
module Bc = Dfs_cache.Block_cache
module Stats = Dfs_util.Stats

(* -- Table 4 ----------------------------------------------------------------- *)

type change_report = { max_kb : float; avg_kb : float; sd_kb : float }

type size_report = {
  avg_bytes : float;
  sd_bytes : float;
  change_15min : change_report;
  change_60min : change_report;
  samples_used : int;
}

(* The max-min size change of each active, reboot-free window of one
   client's samples, consed onto [changes] in window order.  A window
   holds the samples less than [window] seconds after its first one; as
   the samples are in time order, it ends at the first sample past
   that, which opens the next window. *)
let window_changes ~window (samples : Counters.sample array) changes =
  let n = Array.length samples in
  let rec go i changes =
    if i >= n then changes
    else begin
      let limit = samples.(i).time +. window in
      let j = ref i and active = ref false and rebooted = ref false in
      let mx = ref neg_infinity and mn = ref infinity in
      while !j < n && samples.(!j).time < limit do
        let s = samples.(!j) in
        active := !active || s.active;
        rebooted := !rebooted || s.rebooted;
        let size = float_of_int s.cache_bytes in
        mx := Float.max !mx size;
        mn := Float.min !mn size;
        incr j
      done;
      go !j
        (if !active && not !rebooted then (!mx -. !mn) :: changes else changes)
    end
  in
  go 0 changes

let change_report changes =
  let st = Stats.create () in
  List.iter (Stats.add st) changes;
  let kb x = x /. 1024.0 in
  if Stats.count st = 0 then { max_kb = 0.0; avg_kb = 0.0; sd_kb = 0.0 }
  else
    {
      max_kb = kb (Stats.max st);
      avg_kb = kb (Stats.mean st);
      sd_kb = kb (Stats.stddev st);
    }

let cache_sizes runs =
  let size_stats = Stats.create () in
  List.iter
    (fun (s : Counters.sample) -> Stats.add size_stats (float_of_int s.cache_bytes))
    (List.concat_map Counters.samples runs);
  (* Each run's samples per client, clients in descending id order and a
     client's runs in run order: consing every window's change in that
     order lists the clients in id order, and a client's windows newest
     first across runs. *)
  let per_client =
    List.concat_map
      (fun counters ->
        List.map
          (fun (client, samples) -> (client, Array.of_list samples))
          (Counters.by_client counters))
      runs
    |> List.stable_sort (fun (a, _) (b, _) -> Dfs_trace.Ids.Client.compare b a)
  in
  let all_changes window =
    List.fold_left
      (fun changes (_, samples) -> window_changes ~window samples changes)
      [] per_client
  in
  {
    avg_bytes = Stats.mean size_stats;
    sd_bytes = Stats.stddev size_stats;
    change_15min = change_report (all_changes (15.0 *. 60.0));
    change_60min = change_report (all_changes (60.0 *. 60.0));
    samples_used = Stats.count size_stats;
  }

(* -- Tables 5 and 7 ----------------------------------------------------------- *)

type traffic_row = {
  category : Traffic.category;
  read_pct : float;
  write_pct : float;
  total_pct : float;
  read_bytes : int;
  write_bytes : int;
}

let traffic_rows traffic =
  let total = float_of_int (max 1 (Traffic.total traffic)) in
  List.map
    (fun cat ->
      let r = Traffic.read_bytes traffic cat in
      let w = Traffic.write_bytes traffic cat in
      {
        category = cat;
        read_pct = 100.0 *. float_of_int r /. total;
        write_pct = 100.0 *. float_of_int w /. total;
        total_pct = 100.0 *. float_of_int (r + w) /. total;
        read_bytes = r;
        write_bytes = w;
      })
    Traffic.all_categories

let cacheable_fraction traffic =
  let total = Traffic.total traffic in
  if total = 0 then 0.0
  else begin
    let cacheable =
      List.fold_left
        (fun acc cat ->
          if Traffic.cacheable cat then
            acc + Traffic.read_bytes traffic cat + Traffic.write_bytes traffic cat
          else acc)
        0 Traffic.all_categories
    in
    float_of_int cacheable /. float_of_int total
  end

(* -- Table 6 ------------------------------------------------------------------ *)

type ratio = { mean_pct : float; sd_pct : float }

type effectiveness = {
  read_miss : ratio;
  read_miss_traffic : ratio;
  writeback_traffic : ratio;
  write_fetch : ratio;
  paging_read_miss : ratio;
}

let ratio_of_stats st =
  { mean_pct = Stats.mean st; sd_pct = Stats.stddev st }

let pct a b = if b <= 0 then None else Some (100.0 *. float_of_int a /. float_of_int b)

let effectiveness stats_list ~migrated =
  let read_miss = Stats.create ()
  and read_miss_traffic = Stats.create ()
  and writeback_traffic = Stats.create ()
  and write_fetch = Stats.create ()
  and paging_read_miss = Stats.create () in
  List.iter
    (fun (s : Bc.stats) ->
      let file_cls = if migrated then s.migrated else s.file in
      let paging_cls = if migrated then s.migrated else s.paging in
      Option.iter (Stats.add read_miss)
        (pct file_cls.read_misses file_cls.read_ops);
      Option.iter (Stats.add read_miss_traffic)
        (pct file_cls.bytes_fetched file_cls.bytes_read);
      Option.iter (Stats.add write_fetch)
        (pct file_cls.write_fetches file_cls.write_ops);
      Option.iter (Stats.add paging_read_miss)
        (pct paging_cls.read_misses paging_cls.read_ops);
      (* Writeback traffic is only tracked cache-wide (writebacks are not
         attributable to migrated vs local processes), so it appears in
         the Total column only — the paper's Table 6 marks it NA for
         migrated processes too. *)
      if not migrated then
        Option.iter (Stats.add writeback_traffic)
          (pct s.writeback_bytes s.all.bytes_written))
    stats_list;
  {
    read_miss = ratio_of_stats read_miss;
    read_miss_traffic = ratio_of_stats read_miss_traffic;
    writeback_traffic = ratio_of_stats writeback_traffic;
    write_fetch = ratio_of_stats write_fetch;
    paging_read_miss = ratio_of_stats paging_read_miss;
  }

let filter_ratio ~raw ~server =
  let r = Traffic.total raw in
  if r = 0 then 0.0 else float_of_int (Traffic.total server) /. float_of_int r

(* -- Tables 8 and 9 ------------------------------------------------------------ *)

type reason_row = {
  r_label : string;
  blocks_pct : float;
  age_mean : float;
  age_sd : float;
  count : int;
}

let reason_rows rows =
  (* rows : (label, Stats.t) list list — one inner list per client *)
  match rows with
  | [] -> []
  | first :: _ ->
    let labels = List.map fst first in
    let merged =
      List.map
        (fun label ->
          let st =
            List.fold_left
              (fun acc per_client -> Stats.merge acc (List.assoc label per_client))
              (Stats.create ()) rows
          in
          (label, st))
        labels
    in
    let total =
      List.fold_left (fun acc (_, st) -> acc + Stats.count st) 0 merged
    in
    List.map
      (fun (label, st) ->
        {
          r_label = label;
          blocks_pct =
            (if total = 0 then 0.0
             else 100.0 *. float_of_int (Stats.count st) /. float_of_int total);
          age_mean = Stats.mean st;
          age_sd = Stats.stddev st;
          count = Stats.count st;
        })
      merged

let replacements stats_list =
  reason_rows
    (List.map
       (fun (s : Bc.stats) ->
         List.map
           (fun (reason, st) -> (Bc.replace_reason_name reason, st))
           s.replacements)
       stats_list)

let cleanings stats_list =
  reason_rows
    (List.map
       (fun (s : Bc.stats) ->
         List.map
           (fun (reason, st) -> (Bc.clean_reason_name reason, st))
           s.cleanings)
       stats_list)
