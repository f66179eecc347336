(** The eight 24-hour trace configurations of Table 1.

    Traces were collected in pairs over four 48-hour periods; no attempt
    was made to keep workloads consistent across them, so the presets
    differ in seed (and thus in what the population happens to do).
    During traces 3 and 4, two users were running class projects with
    very large files: one a simulator reading ~20 MB inputs, the other a
    cache simulation producing a 10 MB file that was post-processed and
    deleted — both repeatedly all day.  Those two users are modelled as
    dedicated {!Driver.special_user}s. *)

type preset = {
  name : string;  (** "trace1" .. "trace8" *)
  seed : int;
  duration : float;  (** seconds; 24 h *)
  start_hour : float;  (** wall-clock hour at trace start *)
  cluster_config : Dfs_sim.Cluster.config;
  params : Params.t;
  special_users : Driver.special_user list;
}

val trace : int -> preset
(** [trace n] for [n] in 1-8.  @raise Invalid_argument otherwise. *)

val all : unit -> preset list

val with_faults : preset -> Dfs_fault.Profile.t -> preset
(** The same preset with fault injection enabled (or disabled again with
    {!Dfs_fault.Profile.none}).  The fault schedule derives only from
    the profile's own seed, so the underlying workload is unchanged. *)

val scaled : preset -> factor:float -> preset
(** Shrink a preset's duration by [factor] (e.g. 0.1 for a ~2.4-hour
    run), starting mid-morning so the short window covers the busy part
    of the day.  Analyses normalize by duration, so scaled runs preserve
    rates; absolute per-day counts shrink proportionally. *)

val run : preset -> Dfs_sim.Cluster.t * Driver.t
(** Build the cluster, set up the population, and run for the preset's
    duration. *)
