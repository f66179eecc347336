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
    {!Fused}; this is the same fold with the one setting. *)

(** {1 Accumulator}

    The analysis in one pass over any number of
    [(interval, migrated_only)] settings, as a fold {!Fused} drives with
    Table 2's four: [acc_record] for every record in trace order,
    [acc_boundary] at every run boundary of the session sweep.  A
    record's time, user, migrated flag and tag are read once for every
    setting.  Each setting keeps its own active-user sets, whose hash
    order the throughput statistics are summed in, so the fold needs
    every record in trace order. *)

type acc

val acc_create : t0:float -> (float * bool) list -> acc
(** [acc_create ~t0 settings]: each setting is an
    [(interval, migrated_only)] pair.  [t0] is the trace's first
    record's time (the intervals' origin), or [nan] for an empty
    trace. *)

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

val acc_finish : acc -> report list
(** One report per setting, in the order given to {!acc_create}. *)

val pp : Format.formatter -> report -> unit
