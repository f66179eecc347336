(** A fixed-size domain pool for embarrassingly parallel batches.

    The reproduce pipeline is a handful of coarse, independent jobs
    (simulate eight preset traces; render sixteen table/figure passes),
    so the pool is deliberately work-stealing-free: tasks are claimed
    from a single atomic cursor in submission order and results are
    joined back {e in input order}, which makes [map] deterministic —
    parallel and sequential executions of the same pure tasks return the
    same list.

    Each [map] runs its claim loop on a {!Team} created for the call and
    shut down before it returns; for the seconds-long jobs this pool
    exists for, domain startup (~30 us) is noise, and never parking idle
    domains keeps the process single-threaded outside explicit parallel
    sections.  {!Team} is the only code that spawns domains. *)

type t

val default_jobs : unit -> int
(** The [DFS_JOBS] environment variable when set to a positive integer,
    else [Domain.recommended_domain_count ()]. *)

val create : ?jobs:int -> unit -> t
(** [jobs] caps the number of domains a [map] may use (clamped to at
    least 1); defaults to {!default_jobs}. *)

val jobs : t -> int

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] applies [f] to every element of [xs], using up to
    [jobs pool] domains, and returns the results in input order.

    If one or more applications raise, no further elements are claimed,
    and the exception of the {e earliest} failing input element is
    re-raised after all workers have joined: elements are claimed in
    input order and a claimed element always runs, so the choice of
    exception is deterministic too.

    Nested use is rejected: calling [map] from inside a task raises
    [Invalid_argument] rather than deadlocking or oversubscribing — the
    pipeline parallelizes at one level at a time.

    With [jobs pool = 1] (or a single task) the team has one member and
    everything runs in the calling domain, with no domains spawned:
    [DFS_JOBS=1] gives the exact sequential execution, which stops at
    the first failing element. *)

val in_pool_task : unit -> bool
(** True while the calling domain is executing a pool task, whatever the
    worker count. *)

(** {1 Long-lived worker teams} *)

module Team : sig
  (** A fixed crew of worker domains for barrier-synchronized loops.

      A sharded simulation re-enters its workers once per lookahead
      window — thousands of times per run — so the team keeps
      [size - 1] domains parked on a condition variable between
      generations; {!map} creates a team for each call.  The calling
      domain is member 0.

      A team is a first-class entry point, deliberately outside the
      pool's nested-use guard: it never sets the pool task flag, and a
      team of [size 1] runs everything in the calling domain with no
      domains spawned.  No production path creates a team inside a
      [Pool.map] task (the sharded [scale] run is a top-level command),
      but doing so is legal and cannot deadlock. *)

  type t

  val create : size:int -> t
  (** Spawn a team of [size] members (clamped to at least 1).
      [size - 1] domains are spawned immediately and parked. *)

  val size : t -> int

  val run : t -> (int -> unit) -> unit
  (** [run t f] executes [f m] on every member [m] of [0 .. size-1]
      concurrently ([f 0] in the calling domain) and returns once all
      members have finished — a full barrier.  If members raise, the
      exception of the {e lowest-numbered} member is re-raised (so the
      choice is deterministic).  Not reentrant: only the creating
      domain may call [run], one generation at a time. *)

  val shutdown : t -> unit
  (** Park, join and release the spawned domains; idempotent.  [run]
      raises afterwards. *)
end

(** {1 Observability}

    Every [map] publishes utilization gauges into the default
    {!Dfs_obs.Metrics} registry — [pool.domain<i>.busy_s] (wall seconds
    worker [i] spent executing tasks), [pool.busy_s] / [pool.idle_s] /
    [pool.wall_s], and [pool.utilization] (busy worker-seconds over
    [workers x wall]) — and, when {!Dfs_obs.Profiler} is active, records
    each task execution as a ["pool.task"] span on the executing
    domain's stream.  Both are advisory: results and their order are
    identical with profiling on or off. *)
