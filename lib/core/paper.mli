(** Reference values transcribed from the paper, used by every
    experiment's report so that measured results print side by side with
    what Baker et al. measured on the Sprite cluster in 1991.

    Where the available copy of a table is partially illegible, values
    are reconstructed from the paper's prose and marked [approx]; see
    EXPERIMENTS.md for the per-cell provenance. *)

type range = { value : float; lo : float; hi : float }

(** {1 Table 2 — user activity} *)

type activity_col = {
  max_active : float;
  avg_active : float;
  sd_active : float;
  avg_tput : float;  (** KB/s per active user *)
  sd_tput : float;
  peak_user : float;
  peak_total : float;
}

val t2_all_10min : activity_col
val t2_mig_10min : activity_col
val t2_bsd_10min_avg_users : float
val t2_bsd_10min_tput : float
val t2_all_10s : activity_col
val t2_mig_10s : activity_col
val t2_bsd_10s_avg_users : float
val t2_bsd_10s_tput : float

(** {1 Table 3 — access patterns} (percent) *)

type t3_class = {
  accesses : range;
  bytes : range;
  whole_by_acc : range;
  seq_by_acc : range;
  rand_by_acc : range;
  whole_by_bytes : range;
  seq_by_bytes : range;
  rand_by_bytes : range;
}

val t3_read_only : t3_class
val t3_write_only : t3_class
val t3_read_write : t3_class

(** {1 Figures — headline points} *)

val fig1_pct_runs_under_10k : float
(** ~80% of runs are shorter than 10 KB. *)

val fig1_pct_bytes_in_runs_over_1m : float
(** At least 10% of bytes move in runs longer than 1 MB. *)

val fig2_pct_bytes_from_files_over_1m : float
(** ~40% of bytes come from files of 1 MB or more (trace 1). *)

val fig3_pct_opens_under_quarter_s : float
(** ~75% of opens last under a quarter second. *)

val fig4_pct_files_dead_under_30s : range
(** 65-80% of files die within 30 seconds. *)

val fig4_pct_bytes_dead_under_30s : range
(** Only ~4-27% of bytes die within 30 seconds. *)

(** {1 Table 4 — client cache sizes} *)

val t4_avg_cache_mb : float
(** ~7 MB out of ~24 MB of client memory. *)

val t4_change_15min_avg_kb : float
val t4_change_15min_sd_kb : float
val t4_change_60min_avg_kb : float
val t4_change_60min_sd_kb : float

(** {1 Table 5 / Table 7 — traffic shares} (percent of bytes) *)

val t5_reads_pct : float
(** 81.7 — raw traffic favours reads. *)

val t5_writes_pct : float

val t5_paging_pct : float
(** ~35% of raw bytes are paging. *)

val t5_uncacheable_pct : float
(** ~20% of raw traffic cannot be cached on clients. *)

val t7_paging_pct : float
(** ~35% of server bytes are paging. *)

val t7_shared_pct : float
(** ~1% of server traffic is write-shared file traffic. *)

val filter_ratio : float
(** Client caches pass about 50% of raw traffic through to servers. *)

(** {1 Table 6 — cache effectiveness} (percent) *)

type t6_row = { total : float; total_sd : float; migrated : float; migrated_sd : float }

val t6_read_miss : t6_row
val t6_read_miss_traffic : t6_row
val t6_writeback_traffic : t6_row
(** The migrated column is NA in the paper; encoded as [nan]. *)

val t6_write_fetch : t6_row
val t6_paging_read_miss : t6_row

(** {1 Tables 8 and 9 — replacement and cleaning} *)

val t8_for_block_pct : float
val t8_for_block_age_min : float
val t8_to_vm_pct : float
val t8_to_vm_age_min : float

val t9_delay_pct : float
val t9_fsync_pct : float
val t9_recall_pct : float
val t9_vm_pct : float

(** {1 Table 10 — consistency actions} (percent of file opens) *)

val t10_sharing : range
val t10_recall : range

(** {1 Table 11 — stale-data errors under polling} *)

type t11_col = {
  errors_per_hour : range;
  users_affected_per_trace : range;  (** percent *)
  users_affected_all : float;  (** percent, over all traces *)
  opens_with_error : range;  (** percent *)
  migrated_opens_with_error : range;  (** percent *)
}

val t11_60s : t11_col
val t11_3s : t11_col

(** {1 Table 12 — consistency overheads} (ratios vs application demand) *)

type t12_row = { bytes_ratio : float; rpc_ratio : float }

val t12_sprite : t12_row
val t12_modified : t12_row
val t12_token : t12_row
