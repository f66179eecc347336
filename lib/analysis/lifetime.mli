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

val analyze : Dfs_trace.Record_batch.t -> t
(** The sequential pass: the fused analysis computes the same result
    through the accumulator below. *)

(** Incremental accumulator used by the fused analysis pass: feed every
    record index with {!acc_record} (collects deletes/truncates in record
    order) and every completed access with {!acc_access} (collects
    write-bearing closes in close order); {!acc_finish} merges the two
    event lists by time and ages the deaths. *)

type acc

val acc_create : unit -> acc

val acc_record : acc -> Dfs_trace.Record_batch.t -> int -> unit

val acc_access : acc -> Session.access -> unit

val death_of_record :
  Dfs_trace.Record_batch.t -> int -> (float * Dfs_trace.Ids.File.t * int) option
(** The death record [i] contributes, if any: [(time, file, old size)]
    for deletes of regular files and for truncations. {!acc_record} is
    exactly "feed {!death_of_record} into {!acc_death}". *)

val acc_death :
  acc -> time:float -> file:Dfs_trace.Ids.File.t -> size:int -> unit
(** Append one death.  Must be called in trace record order (the order
    {!acc_record} sees them) for tie-breaking to match the sequential
    pass. *)

val acc_finish : acc -> t

val default_xs : float array
(** 1 second to 10 M seconds, log spaced. *)

val fraction_files_under : t -> float -> float

val fraction_bytes_under : t -> float -> float
