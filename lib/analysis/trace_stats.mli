(** Table 1: overall trace statistics. *)

type t = {
  duration_hours : float;
  different_users : int;
  users_of_migration : int;
  mbytes_read_files : float;
  mbytes_written_files : float;
  mbytes_read_dirs : float;
  open_events : int;
  close_events : int;
  reposition_events : int;
  delete_events : int;
  truncate_events : int;
  shared_read_events : int;
  shared_write_events : int;
}

val of_batch : Dfs_trace.Record_batch.t -> t
(** Event counts straight off the records; megabytes read/written come
    from the per-access totals carried on closes of regular files
    (directory data is counted separately, from directory-read records).
    The fused analysis computes the same result through the accumulator
    below. *)

(** Incremental accumulator used by the fused analysis pass: feed every
    record index with {!acc_record} and every completed access with
    {!acc_access} (all contributions are commutative). *)

type acc

val acc_create : unit -> acc

val acc_record : acc -> Dfs_trace.Record_batch.t -> int -> unit

val acc_access : acc -> Session.access -> unit

val acc_merge : acc -> acc -> unit
(** [acc_merge dst src] folds [src] into [dst].  All contributions are
    commutative (set unions, sums, min/max), so per-shard accumulators
    merge to exactly the sequential result. *)

val acc_finish : acc -> t

val pp : Format.formatter -> t -> unit
