(** A fault schedule: every outage window, precomputed.

    The schedule is a {e pure function} of [(profile, n_servers, horizon)]:
    it draws exponential failure/repair times from RNG streams split off
    the profile seed and nothing else, so a run's failures are identical
    whatever the domain count or the order in which clusters are built.
    Windows are generated eagerly up to [horizon]; an outage that begins
    before the horizon may end after it. *)

type window = { down_at : float; up_at : float }

type t

val generate : profile:Profile.t -> n_servers:int -> horizon:float -> t

val server_outages : t -> int -> window list
(** Outage windows of one server, in time order, non-overlapping. *)

val partitions : t -> window list
(** Cluster-wide network partition windows, in time order. *)

val server_down : t -> server:int -> now:float -> window option
(** The outage window covering [now] for this server, if any
    ([down_at <= now < up_at]). *)

val partitioned : t -> now:float -> window option

val crash_count : t -> int
(** Total crash events across all servers (within the horizon). *)
