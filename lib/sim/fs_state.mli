(** Authoritative file-system metadata: the single shared hierarchy all
    clients see (Sprite provides a single-system image with no local
    disks).  Files are spread across the file servers; most of the load
    lands on one server, as in the measured cluster. *)

type file_info = {
  id : Dfs_trace.Ids.File.t;
  server : Dfs_trace.Ids.Server.t;
  is_dir : bool;
  mutable size : int;
  mutable exists : bool;
  mutable created_at : float;
  mutable version : int;
      (** bumped on every write-open; clients use it to flush stale blocks *)
}

type t

val create :
  n_servers:int ->
  ?server_id_base:int ->
  ?file_id_base:int ->
  rng:Dfs_util.Rng.t ->
  unit ->
  t
(** File placement is biased as in the measured cluster: 70% of files
    on server 0, the rest spread evenly.  [server_id_base] /
    [file_id_base] (default 0) offset every id this state mints, so the
    states of a partitioned simulation allocate disjoint global id
    ranges: [pick_server] returns ids in
    [server_id_base, server_id_base + n_servers) and files are numbered
    from [file_id_base]. *)

val file_id_base : t -> int
(** First allocated file id; files span
    [file_id_base, file_id_base + total_files). *)

val create_file :
  t ->
  now:float ->
  ?server:Dfs_trace.Ids.Server.t ->
  ?dir:bool ->
  ?size:int ->
  unit ->
  file_info
(** Allocate a fresh file id, place it on a server, and return its
    info.  [server] pins the placement (trace replay preserving an
    imported file→server mapping) without consuming the placement RNG;
    by default the server is drawn from the placement bias. *)

val find : t -> Dfs_trace.Ids.File.t -> file_info option

val delete : t -> Dfs_trace.Ids.File.t -> unit
(** Marks the file non-existent; its id is never reused. *)

val recreate : t -> now:float -> Dfs_trace.Ids.File.t -> unit
(** An open with O_CREAT of a previously deleted path may reuse the info;
    resets size to zero and stamps a new creation time. *)

val live_files : t -> int

val total_files : t -> int

val drop_files : t -> unit
(** Release the per-file info table once the simulation is over.
    {!live_files} still answers (it is a counter); lookups and
    {!total_files} do not. *)
