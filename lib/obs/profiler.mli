(** The one span recorder, over two clocks.

    - {b Wall} spans time the pipeline itself: dataset generation, the
      k-way trace merge, the fused analysis pass, each experiment and
      every {!Dfs_util.Pool} task wrap themselves in {!span}.  Spans nest,
      each domain keeps its own stream, and the [Gc.quick_stat] deltas
      while a span was open ride along as its [args].
    - {b Sim} spans are the simulator's analogue of the paper's per-server
      trace logs (Section 3): RPCs, disk I/O, cache fills, writebacks and
      evictions, consistency actions, faults and migrations, stamped in
      simulated seconds.  Each simulation records into its own stream in
      its engine's event order; the engine installs the stream, with its
      clock, on whichever domain runs it.  A stream keeps its first
      {!sim_capacity} spans and only counts the rest, so what is kept is
      the same whatever the domain count; the simulation {!publish}es its
      counts into the [obs.trace.added] and [obs.trace.dropped] metrics
      when it ends.

    Both clocks are off by default: {!span} is then one branch around the
    thunk and {!admit} one load.  Recording never changes simulation
    results. *)

type clock = Wall | Sim

type span = {
  clock : clock;
  name : string;
  cat : string;
  domain : int;  (** wall: [Domain.self] of the recording domain; sim: 0 *)
  depth : int;  (** wall: nesting depth within that domain, 0 = top; sim: 0 *)
  t0 : float;  (** wall: seconds since {!enable}; sim: simulated seconds *)
  dur : float;  (** seconds on the span's clock; 0 for instant sim events *)
  args : (string * Json.t) list;
      (** wall: [gc_minor], [gc_major], [gc_promoted_words] and
          [gc_minor_words]; sim: the event's attributes *)
}

(** {1 Wall clock} *)

val enable : unit -> unit
(** Turn wall profiling on, clearing earlier wall spans and restarting
    the epoch span [t0] values count from. *)

val disable : unit -> unit

val active : unit -> bool

val span : ?cat:string -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()], recorded when profiling is active as a
    wall span [name] (category [cat], default ["phase"]) on the calling
    domain's stream, even if [f] raises. *)

val spans : unit -> span list
(** Every recorded wall span — never a sim span — sorted by start time,
    then domain, then depth. *)

val elapsed : unit -> float
(** Wall seconds since {!enable} (0 if never enabled). *)

(** {1 Simulated time} *)

val sim_capacity : int
(** Spans each simulation keeps: its first 100,000. *)

val enable_sim : unit -> unit
(** Turn sim recording on, dropping earlier simulations' streams. *)

val disable_sim : unit -> unit

type stream

val stream : label:string -> now:(unit -> float) -> stream option
(** A stream for a new simulation labelled [label] whose clock is [now];
    [None] when sim recording is off. *)

val recording : stream -> (unit -> 'a) -> 'a
(** [recording s f] runs [f] with [s] installed on the calling domain,
    restoring the previous installation afterwards. *)

val admit : unit -> bool
(** The guard of every sim emit site: [true] when a stream is installed
    and has room, and the caller must then {!emit} exactly one span.  A
    span past the capacity is counted as dropped and [false] returned,
    so the caller builds no attributes. *)

val publish : stream -> unit
(** Add the stream's offered and dropped spans to the [obs.trace.added]
    and [obs.trace.dropped] counters; once, when its simulation ends. *)

val now : unit -> float
(** The installed stream's simulated time; [0.] when none is. *)

val emit :
  cat:string -> name:string -> t0:float -> dur:float -> (string * Json.t) list -> unit
(** Record one sim span in the installed stream, after {!admit}. *)

val simulations : unit -> (string * span Seq.t) list
(** Every stream since {!enable_sim} with its kept spans in event order,
    sorted by label (equal labels in creation order). *)

(** {1 Both clocks} *)

val added : clock -> int
(** Spans offered since {!enable} or {!enable_sim}, dropped ones too. *)

val dropped : clock -> int
(** Spans lost to the bounds: 65,536 per domain for wall spans (a
    runaway guard), {!sim_capacity} per simulation for sim spans. *)
