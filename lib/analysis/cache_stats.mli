(** Tables 4-9: the file-cache measurements of Section 5, computed from
    the kernel counters and per-client cache statistics of a finished
    cluster run. *)

(** {1 Table 4 — client cache sizes} *)

type change_report = { max_kb : float; avg_kb : float; sd_kb : float }

type size_report = {
  avg_bytes : float;
  sd_bytes : float;
  change_15min : change_report;
  change_60min : change_report;
  samples_used : int;
}

val cache_sizes : Dfs_sim.Counters.t list -> size_report
(** Table 4 over every machine and day: one counter set per run, in run
    order.  Size-change statistics use only intervals with user/CPU
    activity and screen out reboots, as the paper's Table 4 caption
    describes.  A window opens at a client's first sample not in an
    earlier window and holds the samples less than 15 (or 60) minutes
    after it; windows never straddle two runs.  Each client's samples
    are grouped once and each window is closed by index, which requires
    what the cluster's sampler gives: each client's samples in time
    order, recorded on one 60 s clock.  The changes are summed clients
    in id order and, within a client, newest window first across runs;
    the sums are order-sensitive floats, so that order is part of the
    printed digits. *)

(** {1 Tables 5 and 7 — traffic breakdowns} *)

type traffic_row = {
  category : Dfs_sim.Traffic.category;
  read_pct : float;
  write_pct : float;
  total_pct : float;
  read_bytes : int;
  write_bytes : int;
}

val traffic_rows : Dfs_sim.Traffic.t -> traffic_row list
(** One row per category, percentages of the tap's total bytes; works for
    both the raw client tap (Table 5) and the server tap (Table 7). *)

val cacheable_fraction : Dfs_sim.Traffic.t -> float

(** {1 Table 6 — client cache effectiveness} *)

type ratio = { mean_pct : float; sd_pct : float }

type effectiveness = {
  read_miss : ratio;  (** % of cache read ops that missed *)
  read_miss_traffic : ratio;  (** bytes from server / bytes read by apps *)
  writeback_traffic : ratio;  (** bytes written back / bytes written *)
  write_fetch : ratio;  (** % of cache write ops needing a fetch *)
  paging_read_miss : ratio;
}

val effectiveness :
  Dfs_cache.Block_cache.stats list -> migrated:bool -> effectiveness
(** Per-client ratios averaged across clients (mean and standard
    deviation of per-machine values, echoing the paper's "standard
    deviations of the daily averages for individual machines").  With
    [migrated], only requests from migrated processes are considered. *)

val filter_ratio : raw:Dfs_sim.Traffic.t -> server:Dfs_sim.Traffic.t -> float
(** Overall bytes-to-server / raw-bytes ratio (the paper measured ~50%). *)

(** {1 Tables 8 and 9 — replacement and cleaning} *)

type reason_row = {
  r_label : string;
  blocks_pct : float;
  age_mean : float;  (** seconds *)
  age_sd : float;
  count : int;
}

val replacements : Dfs_cache.Block_cache.stats list -> reason_row list

val cleanings : Dfs_cache.Block_cache.stats list -> reason_row list
