(** Conservative parallel discrete-event execution.

    Drives an array of per-partition {!Engine}s through shared lookahead
    windows: within a window every partition advances independently (in
    parallel on a {!Dfs_util.Pool.Team}); at the window barrier all
    cross-partition messages are exchanged and the floor advances.  The
    protocol is conservative — a partition never executes an event that
    a message still in flight could precede:

    - cross-partition sends must target [at >= now + lookahead]
      (enforced by {!post}, which raises otherwise);
    - no window is wider than the lookahead when there is more than one
      partition, so every message posted during a window lands at or
      after the next floor;
    - {!Engine.run_window} turns any event below the floor into a hard
      {!Engine.Below_floor} error rather than executing it out of order.

    Delivery at a barrier imposes a total order — [(timestamp, source
    partition, source emission sequence)] — before scheduling into the
    destination heaps, and partitions have fixed worker affinity
    ([p mod workers]), so results are byte-identical for any worker
    count.  Windows whose horizon precedes every queued event are
    fast-forwarded rather than executed as empty barriers. *)

type t

exception Lookahead_violation of { at : float; min_at : float }
(** A cross-partition send targeted a time closer than the lookahead. *)

val create : lookahead:float -> ?window:float -> Engine.t array -> t
(** [window] defaults to [lookahead]; with more than one partition it
    must not exceed it.  Raises [Invalid_argument] on an empty engine
    array or non-positive lookahead/window. *)

val post : t -> src:int -> dst:int -> at:float -> (unit -> unit) -> unit
(** Send an action to partition [dst], to run at absolute time [at].
    Must be called from partition [src]'s executing window (or before
    {!run}).  @raise Lookahead_violation if [at] is below
    [now src + lookahead]. *)

val run : t -> ?team:Dfs_util.Pool.Team.t -> until:float -> unit -> unit
(** Advance every partition to [until].  Without a team (or with a team
    of size 1) everything runs in the calling domain — the sequential
    execution the parallel one is byte-identical to.  Publishes
    [sim.shard<i>.busy_s] / [sim.shard<i>.stall_s] gauges per worker,
    and sets [sim.lookahead_s] / [sim.pdes.partitions]. *)

val publish : t -> unit
(** Add [sim.barrier.count], [sim.pdes.messages] and the
    [sim.pdes.window_s] histogram to the metrics registry, once, when the
    run ends. *)

val partitions : t -> int

val barriers : t -> int
(** Window barriers executed so far. *)

val messages : t -> int
(** Cross-partition messages posted so far. *)
