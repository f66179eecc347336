(** Drives a cluster with the synthetic user population.

    Each user is a long-lived session process on their home workstation:
    think, pick an application from the group's mix, run it, repeat —
    modulated by the day/night activity profile.  Regular users live on
    their own machines; occasional users share. *)

type special_user = {
  su_group : Params.group;
  su_params : Params.t;  (** private parameter overrides *)
  su_app : Apps.app;  (** the one application this user runs repeatedly *)
  su_think : Dfs_util.Dist.t;
}
(** A dedicated user like the class-project pair of traces 3-4: one ran a
    simulator with ~20 MB inputs, the other produced and post-processed
    10 MB outputs, both repeatedly all day. *)

type t

val setup :
  cluster:Dfs_sim.Cluster.t ->
  params:Params.t ->
  ?start_hour:float ->
  ?special_users:special_user list ->
  unit ->
  t
(** Creates the namespace and user population and spawns all session
    processes (they begin with a short random stagger). *)

val board : t -> Migration.t

val namespace : t -> Namespace.t

val n_users : t -> int
