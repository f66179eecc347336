(** The experiment registry: one entry per table and figure of the
    paper's evaluation.  Each experiment consumes a generated
    {!Dataset.t} and renders a report that prints the measured values
    next to the paper's (with min-max across the eight traces where the
    paper reports them). *)

type t = {
  id : string;  (** "table1".."table12", "fig1".."fig4" *)
  title : string;
  description : string;
  run : Dataset.t -> string;
}

val all : t list
(** In paper order: tables 1-3, figures 1-4, tables 4-12. *)

val find : string -> t option

val ids : string list

(** {1 Cells}

    The numbers that a table prints and a {!Claims} claim checks, each
    computed by the one function here that both read.  A [float list]
    holds one value per trace in run order: the table prints its mean
    (with min-max across traces) and a claim reads its mean.  A [float]
    is pooled over every run.  Percentages are 0-100. *)

val t2_user_tput : Dataset.t -> float list
(** Table 2, 10-minute intervals: average KB/s per active user. *)

val t2_migrated_user_tput : Dataset.t -> float list
(** The same, for users with migrated processes. *)

val fig1_runs_under_10k : Dataset.t -> float list
val fig1_bytes_in_runs_over_1m : Dataset.t -> float list
val fig3_opens_under_quarter_s : Dataset.t -> float list
val fig4_files_dead_under_30s : Dataset.t -> float list
val fig4_bytes_dead_under_30s : Dataset.t -> float list

val t4_avg_cache_mb : Dataset.t -> float

val t6_effectiveness :
  migrated:bool -> Dataset.t -> Dfs_analysis.Cache_stats.effectiveness
(** Table 6's ratios over every client cache, for all processes or
    migrated ones only. *)

val t7_paging_pct : Dataset.t -> float
val t7_filter_pct : Dataset.t -> float
(** The percent of raw bytes that reach the servers. *)

val t9_delay_pct : Dataset.t -> float
(** Table 9's 30-second-delay row; nan with no client cache. *)

val t10_sharing : Dataset.t -> float list
val t10_recall : Dataset.t -> float list
val t11_errors_per_hour_60s : Dataset.t -> float list
val t11_errors_per_hour_3s : Dataset.t -> float list
val t11_users_affected_60s : Dataset.t -> float list

val t12_token_bytes_ratio : Dataset.t -> float list
(** One value per trace with write-sharing; none without. *)
