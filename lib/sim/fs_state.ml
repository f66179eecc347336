module File = Dfs_trace.Ids.File
module Server = Dfs_trace.Ids.Server

type file_info = {
  id : File.t;
  server : Server.t;
  is_dir : bool;
  mutable size : int;
  mutable exists : bool;
  mutable created_at : float;
  mutable version : int;
}

type t = {
  n_servers : int;
  server_weights : float array;
  server_id_base : int;  (* global id of local server 0 (partitioning) *)
  file_id_base : int;  (* first file id this state allocates *)
  rng : Dfs_util.Rng.t;
  files : file_info File.Tbl.t;
  mutable next_id : int;
  mutable live : int;
}

let default_weights n =
  (* Most traffic is handled by a single server (the measured cluster's
     Sun 4); the remainder spreads evenly. *)
  if n = 1 then [| 1.0 |]
  else Array.init n (fun i -> if i = 0 then 0.7 else 0.3 /. float_of_int (n - 1))

let create ~n_servers ?(server_id_base = 0) ?(file_id_base = 0) ~rng () =
  assert (n_servers >= 1);
  assert (server_id_base >= 0 && file_id_base >= 0);
  {
    n_servers;
    server_weights = default_weights n_servers;
    server_id_base;
    file_id_base;
    rng;
    files = File.Tbl.create 4096;
    next_id = file_id_base;
    live = 0;
  }

let file_id_base t = t.file_id_base

let pick_server t =
  let choices =
    Array.to_list
      (Array.mapi
         (fun i w -> (Server.of_int (t.server_id_base + i), w))
         t.server_weights)
  in
  Dfs_util.Rng.pick_weighted t.rng choices

let create_file t ~now ?server ?(dir = false) ?(size = 0) () =
  let id = File.of_int t.next_id in
  t.next_id <- t.next_id + 1;
  (* An explicit [server] (trace replay preserving imported placement)
     bypasses the weighted draw and leaves the RNG stream untouched, so
     callers that never pass it are byte-identical to before. *)
  let server =
    match server with Some s -> s | None -> pick_server t
  in
  let info =
    {
      id;
      server;
      is_dir = dir;
      size;
      exists = true;
      created_at = now;
      version = 0;
    }
  in
  File.Tbl.replace t.files id info;
  t.live <- t.live + 1;
  info

let find t id = File.Tbl.find_opt t.files id

let find_exn t id =
  match find t id with
  | Some info -> info
  | None -> invalid_arg "Fs_state.find_exn: unknown file"

let delete t id =
  match find t id with
  | Some info when info.exists ->
    info.exists <- false;
    info.size <- 0;
    t.live <- t.live - 1
  | Some _ | None -> ()

let recreate t ~now id =
  let info = find_exn t id in
  if not info.exists then begin
    info.exists <- true;
    t.live <- t.live + 1
  end;
  info.size <- 0;
  info.created_at <- now;
  info.version <- info.version + 1

let live_files t = t.live

let total_files t = File.Tbl.length t.files

(* Post-simulation memory release: the per-file info table is the bulk
   of the namespace's footprint.  [live_files] keeps answering (it is a
   counter); lookups and [total_files] do not. *)
let drop_files t = File.Tbl.reset t.files
