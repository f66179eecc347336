(** Workload parameters.

    The measured cluster's users fell into four groups of roughly equal
    size — operating-system researchers, computer-architecture
    researchers simulating new I/O subsystems, a VLSI/parallel-processing
    group, and miscellaneous others — running interactive editors,
    program development, electronic mail, document production and
    simulation (Section 2).  These parameters encode that population:
    which applications each group runs and with what file-size and
    think-time distributions.

    Everything here is data so that presets (the eight traces) can be
    expressed as tweaks of {!default}. *)

type group = Os_research | Architecture | Vlsi_parallel | Misc

val all_groups : group list

(** Relative invocation weights of the application models. *)
type app_mix = {
  edit : float;
  compile : float;
  pmake : float;  (** migrated parallel make *)
  mail : float;
  doc : float;  (** document production *)
  shell : float;  (** directory listings, greps, small random access *)
  big_sim : float;  (** large-input/-output simulators *)
}

type group_params = {
  mix : app_mix;
  think_time : Dfs_util.Dist.t;  (** seconds between app invocations *)
  big_input_size : Dfs_util.Dist.t;  (** simulator input files *)
  big_output_size : Dfs_util.Dist.t;  (** simulator outputs *)
}

type t = {
  groups : (group * group_params) list;
  n_regular_users : int;  (** ~30 users do all their computing here *)
  n_occasional_users : int;  (** ~40 more use it occasionally *)
  (* file-size distributions *)
  source_size : Dfs_util.Dist.t;  (** program sources, mail pieces, docs *)
  header_size : Dfs_util.Dist.t;
  object_size : Dfs_util.Dist.t;
  exe_size : Dfs_util.Dist.t;  (** linked binaries (kernels ran 2-10 MB) *)
  tmp_size : Dfs_util.Dist.t;  (** compiler/editor temporaries *)
  (* population counts *)
  sources_per_user : int;
  headers_shared : int;
  bins_shared : int;  (** programs in the shared /bin *)
  (* application shape *)
  compile_sources : Dfs_util.Dist.t;  (** sources read per compile *)
  compile_headers : Dfs_util.Dist.t;
  pmake_width : Dfs_util.Dist.t;  (** parallel jobs per pmake *)
  link_probability : float;  (** a compile ends with a link step *)
  partial_read_probability : float;
      (** reads that stop before end of file (other-sequential accesses) *)
  random_access_probability : float;
      (** accesses performed with seeks (random accesses in Table 3) *)
  edit_save_probability : float;
  process_rate : float;  (** bytes/second an app "thinks about" data *)
  (* paging *)
  exe_code_fraction : float;  (** fraction of a binary that is code *)
  exe_data_fraction : float;
  heap_dist : Dfs_util.Dist.t;  (** dirty data+stack bytes per process *)
  (* day/night activity: multiplier on invocation rate per hour 0-23 *)
  hour_activity : float array;
  migration_enabled : bool;
}

val default : t

val group_of_user : t -> int -> group
(** Deterministic group assignment: user index modulo the four groups. *)

val find_group : t -> group -> group_params
