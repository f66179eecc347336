(** Table 2: user activity and burst rates.

    The trace is divided into fixed intervals (the paper uses 10 minutes
    for steady state and 10 seconds for bursts); a user is active in an
    interval if any trace record of theirs falls inside it, and a run's
    bytes count toward the interval in which the run ended (the moment
    the transfer is known from the position-logging events). *)

type report = {
  interval : float;  (** seconds *)
  avg_active_users : float;
  sd_active_users : float;
  max_active_users : int;
  avg_user_throughput : float;  (** KB/s per active user *)
  sd_user_throughput : float;
  peak_user_throughput : float;  (** KB/s *)
  peak_total_throughput : float;  (** KB/s *)
}

val analyze :
  ?migrated_only:bool ->
  interval:float ->
  Dfs_trace.Record_batch.t ->
  report
(** With [migrated_only] (Table 2's second column), a user is active only
    when a migrated process acted for them, and only migrated processes'
    bytes count.  The experiments read Table 2's four reports from
    {!Fused}; this is the same fold over one batch. *)

(** {1 Accumulator}

    The analysis in one pass, as a fold {!Fused} drives: [acc_record]
    for every record in trace order, [acc_boundary] at every run
    boundary of the session sweep.  The per-record half keeps the
    active-user sets, whose insertion order the throughput statistics
    are summed in, so it needs every record in global order; the
    boundary half only adds whole byte counts, so accumulators fed
    disjoint sets of boundaries merge in any order. *)

type acc

val acc_create :
  ?migrated_only:bool -> interval:float -> t0:float -> unit -> acc
(** [t0] is the trace's first record's time (the intervals' origin), or
    [nan] for an empty trace. *)

val acc_record : acc -> Dfs_trace.Record_batch.t -> int -> unit

val acc_boundary :
  acc ->
  user:Dfs_trace.Ids.User.t ->
  migrated:bool ->
  is_dir:bool ->
  time:float ->
  int ->
  unit
(** Shaped as {!Session.sweep_seq}'s [on_boundary]. *)

val acc_merge : acc -> acc -> unit
(** [acc_merge dst src] adds [src]'s bytes into [dst].  Both must have
    been created with the same arguments, and [src] fed boundaries
    only. *)

val acc_finish : acc -> report

val pp : Format.formatter -> report -> unit
