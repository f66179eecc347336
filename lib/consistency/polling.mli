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
(** The fold below with the one interval. *)

(** {1 Accumulator}

    {!simulate} as a per-record fold over any number of intervals, which
    the fused analysis pass drives with Table 11's two.  A file's
    version and last writer do not depend on the interval, so one
    record per file holds them and every client's cached copy, with a
    check time and a seen version per interval: an open or a
    write-close looks one file id up in an int-keyed table
    ({!Dfs_util.Itbl}) and scans the file's copies.  A delete resets
    the version to 0 and the writer to none, the state of a file never
    written.  A stale read depends on other clients' earlier writes, so
    the fold must see every record of the trace in order.  It keeps no
    per-handle state: a close publishes new data exactly when it wrote
    bytes. *)

type acc

val acc_create : intervals:float list -> acc

val acc_record : acc -> Dfs_trace.Record_batch.t -> int -> unit

val acc_finish : acc -> report list
(** One report per interval, in the order given to {!acc_create}. *)

val pct_users_affected : report -> float

val pct_opens_with_error : report -> float

val pct_migrated_opens_with_error : report -> float
