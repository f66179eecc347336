(** Figure 4: file lifetimes, measured when files are deleted (truncation
    to zero length counts as deletion).

    Lifetimes are estimated exactly as in the paper, from the ages of the
    oldest and newest bytes in the file: the per-file lifetime is the
    average of the two ages; the per-byte distribution assumes the file
    was written sequentially, so each byte's age interpolates linearly
    from the oldest to the newest.  Deletions of files whose bytes were
    written before the trace began cannot be aged and are skipped (their
    count is reported). *)

type t = {
  by_files : Dfs_util.Cdf.t;  (** lifetime per deleted file *)
  by_bytes : Dfs_util.Cdf.t;  (** lifetime per deleted byte *)
  deaths_aged : int;  (** deletions with usable age information *)
  deaths_unknown : int;  (** deletions of files never written in-trace *)
}

val short_life : float
(** 30 s: the paper's "files dead within 30 seconds". *)

val table_xs : float array
(** The lifetimes Figure 4's table prints, {!short_life} among them. *)

val chart_xs : float array
(** 1 second to 10 M seconds, three a decade: the lifetimes its chart
    plots. *)

val points : float array
(** {!table_xs} and {!chart_xs}: where the CDFs answer. *)

val analyze : Dfs_trace.Record_batch.t -> t
(** The sequential pass: the fused analysis computes the same result
    through the accumulator below. *)

(** Incremental accumulator used by the fused analysis pass: feed every
    record index with {!acc_record} (collects deletes/truncates in record
    order) and every completed access with {!acc_access} (keeps a
    write-bearing close's file, open and close times, and whether it
    covered the whole file; the access itself is not kept).
    {!acc_finish} interleaves the two event lists by time, writes first
    on ties, and ages the deaths: a merge when both lists arrived in time
    order, as they do from a time-ordered trace, else one stable sort,
    which gives the same order. *)

type acc

val acc_create : unit -> acc

val acc_record : acc -> Dfs_trace.Record_batch.t -> int -> unit

val acc_access : acc -> Session.access -> unit

val acc_finish : acc -> t

val fraction_files_under : t -> float -> float
(** [fraction_files_under t secs]: share of aged deaths whose file lived
    at most [secs], a point of {!points}. *)

val fraction_bytes_under : t -> float -> float
(** The same share by bytes. *)
