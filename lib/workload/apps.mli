(** Application models.

    Each model reproduces the file-access shape of one of the common
    applications named in Section 2 of the paper: interactive editing,
    program development (compiles, and parallel pmake builds that migrate
    jobs to idle hosts), electronic mail, document production, directory
    browsing / shell work, and the large-input simulations that dominate
    traces 3 and 4.

    Every model runs inside an {!Dfs_sim.Engine.spawn}ed process: its file
    operations advance simulated time, so the trace it leaves behind has
    realistic open durations, sequential runs, lifetimes, and burst
    structure. *)

type app = Edit | Compile | Pmake | Mail | Doc | Shell | Big_sim

val pick : Params.app_mix -> Dfs_util.Rng.t -> app

type ctx = {
  cluster : Dfs_sim.Cluster.t;
  params : Params.t;
  ns : Namespace.t;
  board : Migration.t;
  rng : Dfs_util.Rng.t;
  user : Dfs_trace.Ids.User.t;
  group : Params.group;
  home : int;  (** index of the user's own workstation *)
  uses_migration : bool;
      (** only some users offload work to idle hosts (the paper saw 6-11
          of ~40 users with migrated processes per trace) *)
}

val run : ctx -> app -> unit
(** Execute one invocation of the given application on the user's home
    machine (pmake additionally spawns migrated jobs on idle hosts).
    Must be called from inside an engine process. *)

(** The individual models, exposed for tests and examples. *)

val edit : ctx -> unit

val compile : ctx -> host:int -> migrated:bool -> unit

val pmake : ctx -> unit

val mail : ctx -> unit

val big_sim : ctx -> unit
