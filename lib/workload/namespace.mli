(** The shared file hierarchy the workload operates on: per-user home
    directories with program sources and mailboxes, the shared header and
    binary directories, per-group shared status files, and the large data
    files the simulation users keep re-reading.

    The initial population is created before the trace starts, so first
    touches of pre-existing files produce cold-cache misses, exactly like
    a freshly booted client in the measured cluster. *)

type binary = {
  exe : Dfs_sim.Fs_state.file_info;
  code_bytes : int;
  data_bytes : int;
}

type user_files = {
  uid : Dfs_trace.Ids.User.t;
  home_dir : Dfs_sim.Fs_state.file_info;
  mutable sources : Dfs_sim.Fs_state.file_info array;
  mutable objects : Dfs_sim.Fs_state.file_info option array;
      (** one slot per source; filled by compiles *)
  mailbox : Dfs_sim.Fs_state.file_info;
  mutable big_inputs : Dfs_sim.Fs_state.file_info list;
      (** simulator inputs, re-read across runs *)
  mutable exe_out : Dfs_sim.Fs_state.file_info option;
      (** the user's linked program, rewritten by each link step *)
  mutable doc_out : Dfs_sim.Fs_state.file_info option;
      (** formatted-document output, rewritten by each doc run *)
  mutable sim_log : Dfs_sim.Fs_state.file_info option;
      (** results log some simulator runs append to *)
  mutable stale_outputs : Dfs_sim.Fs_state.file_info list;
      (** simulator outputs awaiting cleanup on the next run *)
}

type t

val create :
  fs:Dfs_sim.Fs_state.t ->
  rng:Dfs_util.Rng.t ->
  params:Params.t ->
  now:float ->
  n_users:int ->
  t

val user_files : t -> Dfs_trace.Ids.User.t -> user_files
(** Allocates the user's tree on first access. *)

val pick_binary : t -> rng:Dfs_util.Rng.t -> name:string -> binary
(** A named program (cc, ls, mail, ...) resolves to a stable binary; other
    names hash onto the shared pool. *)

val random_binary : t -> rng:Dfs_util.Rng.t -> binary

val pick_header : t -> rng:Dfs_util.Rng.t -> Dfs_sim.Fs_state.file_info

val pick_source :
  t -> rng:Dfs_util.Rng.t -> user_files -> int
(** Zipf-distributed index into the user's sources (locality: the same
    few files get edited again and again). *)

val shared_dir : t -> rng:Dfs_util.Rng.t -> Dfs_sim.Fs_state.file_info

val group_status_file : t -> Params.group -> Dfs_sim.Fs_state.file_info
(** The per-group scratch/status file that produces (rare) concurrent
    write-sharing. *)

val group_log : t -> Params.group -> Dfs_sim.Fs_state.file_info
(** The group's shared results log: simulators append megabyte-scale
    result batches, group members read recent batches back — the
    coarse-grained side of write-sharing. *)

val pick_group_source :
  t -> rng:Dfs_util.Rng.t -> Params.group -> Dfs_sim.Fs_state.file_info
(** A file from the group's shared project tree; members read these during
    compiles and occasionally edit them — the cross-client write traffic
    behind the recall and stale-data numbers. *)

val new_file :
  t -> now:float -> size:int -> Dfs_sim.Fs_state.file_info
(** A fresh zero-or-preset-size regular file (temporaries, outputs). *)
