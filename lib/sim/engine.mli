(** Discrete-event simulation engine.

    A single event queue ordered by simulated time drives the whole
    cluster.  Besides plain callback scheduling, the engine runs
    {e processes}: ordinary OCaml functions that suspend themselves with
    {!sleep}, implemented with OCaml 5 effect handlers so that workload
    models read as straight-line code.  Each process runs under the
    handler of the {!spawn} that started it, which schedules its wake-ups
    on that engine; an engine run from inside another engine's process
    keeps its processes on its own queue. *)

type t

val create : unit -> t

val now : t -> float
(** Current simulated time, seconds. *)

val record_spans : t -> label:string -> unit
(** Give the engine a sim-time span stream labelled [label], when sim
    recording is on ({!Dfs_obs.Profiler.enable_sim}).  Every later
    {!run_until} or {!run_window} installs it, with this engine's clock,
    on the domain that executes the run. *)

type handle
(** A scheduled event; can be cancelled. *)

val schedule : t -> at:float -> (unit -> unit) -> handle
(** Requires [at >= now t]. *)

val schedule_in : t -> delay:float -> (unit -> unit) -> handle
(** Requires [delay >= 0]. *)

val at : t -> float -> (unit -> unit) -> unit
(** Fire-and-forget absolute scheduling, clamped to [now t] when the
    requested time is already past (convenient for wiring precomputed
    schedules, e.g. fault windows). *)

val cancel : t -> handle -> unit
(** Idempotent; a cancelled event's callback never runs.  Cancelled
    events are deleted lazily, but once they outnumber live events the
    queue is compacted in place, so heap depth tracks live work. *)

val every : t -> interval:float -> ?start:float -> (unit -> unit) -> unit
(** Periodic callback, first firing at [start] (default: [interval] from
    now). The callback keeps firing for as long as the simulation runs. *)

val run_until : t -> float -> unit
(** Execute events in time order until the queue is empty or the next
    event is later than the given horizon. Time is left at the horizon. *)

exception Below_floor of { time : float; floor : float }
(** A live event surfaced below the current window floor — the
    conservative-PDES lookahead contract was violated (see
    {!run_window}). *)

val run_window : t -> floor:float -> float -> unit
(** [run_window t ~floor horizon] is {!run_until} restricted to one
    conservative-PDES window: executing any live event with
    [time < floor] raises {!Below_floor} instead of running it.  The
    window floor is a hard safety property, not a filter — events below
    it can only exist if cross-shard delivery broke the lookahead
    contract. *)

val next_time : t -> float option
(** Time of the earliest queued event, if any — the shard's bound for
    barrier-time fast-forwarding.  Conservative: a cancelled event not
    yet swept may be reported, which can only make the bound earlier. *)

val pending : t -> int
(** Events still queued, including cancelled ones awaiting lazy
    deletion. *)

val live_pending : t -> int
(** Events still queued that will actually run ([pending] minus the
    cancelled ones not yet swept). *)

val drop_pending : t -> unit
(** Release every queued event (and the closures they capture) once the
    simulation is over; the engine must not be run afterwards. *)

val events_executed : t -> int
(** Events actually run (cancelled events excluded) — the engine's own
    work counter. *)

val scheduled : t -> int
(** Events ever scheduled, cancelled ones included. *)

val cancelled : t -> int

val compactions : t -> int
(** In-place sweeps of cancelled events out of the queue. *)

val queue_depth : t -> Dfs_obs.Metrics.Acc.t
(** Queue length, sampled before every 64th event runs. *)

val spans : t -> Dfs_obs.Profiler.stream option

(** {1 Processes} *)

val spawn : t -> ?at:float -> (unit -> unit) -> unit
(** Start a process at the given time (default: now).  Inside the process
    body, {!sleep} suspends execution in simulated time. *)

val sleep : float -> unit
(** Suspend the calling process for the given number of simulated seconds.
    Must be called (transitively) from a {!spawn}ed function, else it
    raises [Invalid_argument].  Negative durations are treated as zero. *)
