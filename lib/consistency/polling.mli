(** Table 11: simulation of an NFS-style polling consistency mechanism.

    A client considers cached data valid for a fixed interval; on the
    first access after the interval expires it revalidates with the
    server.  New data is written through to the server almost immediately
    (at close, in this simulation).  If another workstation modified the
    file while a client's cached copy was still inside its validity
    window, the client reads stale data — a potential error.  The actual
    NFS mechanism adapts the interval between 3 and 60 seconds; like the
    paper we simulate the two extremes as fixed intervals. *)

type report = {
  interval : float;
  duration_hours : float;
  errors : int;  (** potential uses of stale data *)
  errors_per_hour : float;
  users_seen : int;
  users_affected : int;  (** users whose processes suffered errors *)
  file_opens : int;
  opens_with_error : int;
  migrated_opens : int;
  migrated_opens_with_error : int;
  affected_user_ids : Dfs_trace.Ids.User.Set.t;
      (** for cross-trace "percent of users affected over all traces" *)
  seen_user_ids : Dfs_trace.Ids.User.Set.t;
}

val simulate : interval:float -> Dfs_trace.Record_batch.t -> report

(** {1 Accumulator}

    {!simulate} as a per-record fold, which the fused analysis pass
    drives.  Its state is per file and per client, and a stale read
    depends on other clients' earlier writes, so it must see every
    record of the trace in order. *)

type acc

val acc_create : interval:float -> acc

val acc_record : acc -> Dfs_trace.Record_batch.t -> int -> unit

val acc_finish : acc -> report

val pct_users_affected : report -> float

val pct_opens_with_error : report -> float

val pct_migrated_opens_with_error : report -> float
