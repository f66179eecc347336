module Cluster = Dfs_sim.Cluster
module Client = Dfs_sim.Client
module Engine = Dfs_sim.Engine
module Fs_state = Dfs_sim.Fs_state
module Cred = Dfs_sim.Cred
module Record = Dfs_trace.Record
module B = Dfs_trace.Record_batch
module Ids = Dfs_trace.Ids

type stats = {
  records : int;
  applied : int;
  skipped : int;
  synthesized_opens : int;
  clients : int;
  servers : int;
  files : int;
  horizon : float;
}

(* Ceilings on what a trace may demand of the simulator: a hostile
   trace with one enormous id must produce a one-line error, never an
   allocation storm. *)
let max_clients = 4096

let max_servers = 64

let max_files = 1_000_000

let m_applied = Dfs_obs.Metrics.counter "replay.applied"

let m_skipped = Dfs_obs.Metrics.counter "replay.skipped"

let m_synth = Dfs_obs.Metrics.counter "replay.synthesized_opens"

let ( let* ) = Result.bind

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

(* First pass over the trace: id ranges, time order, and the identity
   of every file (owning server, directory-ness, pre-existing size). *)
type file_seed = {
  fserver : Ids.Server.t;
  mutable fdir : bool;
  mutable fsize : int;
}

type scan = {
  n_clients : int;
  n_servers : int;
  file_seeds : (int * file_seed) list;  (* first-appearance order *)
  last_time : float;
}

let scan_trace batch =
  let seeds : file_seed Ids.File.Tbl.t = Ids.File.Tbl.create 256 in
  let order = ref [] in
  let rec go i ~max_client ~max_server ~last_time =
    if i = B.length batch then begin
      let file_seeds =
        List.rev_map
          (fun id -> (id, Ids.File.Tbl.find seeds (Ids.File.of_int id)))
          !order
      in
      Ok
        {
          n_clients = max_client + 1;
          n_servers = max_server + 1;
          file_seeds = List.rev file_seeds;
          last_time;
        }
    end
    else if B.time batch i < last_time then err "record %d out of time order" i
    else begin
      let file = B.file_id batch i in
      let seed =
        match Ids.File.Tbl.find_opt seeds file with
        | Some s -> s
        | None ->
          let s =
            {
              fserver = Ids.Server.of_int (B.server batch i);
              fdir = false;
              fsize = 0;
            }
          in
          Ids.File.Tbl.add seeds file s;
          order := Ids.File.to_int file :: !order;
          s
      in
      (match B.kind batch i with
      | Record.Open { is_dir; created; size; _ } ->
        if is_dir then seed.fdir <- true;
        if (not created) && seed.fsize = 0 then seed.fsize <- size
      | Record.Delete { is_dir; _ } -> if is_dir then seed.fdir <- true
      | Record.Dir_read _ -> seed.fdir <- true
      | _ -> ());
      go (i + 1)
        ~max_client:(max max_client (B.client batch i))
        ~max_server:(max max_server (B.server batch i))
        ~last_time:(B.time batch i)
    end
  in
  go 0 ~max_client:(-1) ~max_server:(-1) ~last_time:0.0

(* Per-(client, pid) execution stream.  Each stream runs as one engine
   process; within a stream operations are sequential, so its fd state
   needs no locking. *)
type open_state = { fd : Client.fd; start_pos : int }

let chunked_read client fd total =
  (* [Client.read] clamps at end of file; totals larger than the file
     mean the session re-read data, so wrap to the start and continue.
     An empty file stops immediately. *)
  let rec go remaining =
    if remaining > 0 then begin
      let got = Client.read client fd ~len:remaining in
      if got > 0 then go (remaining - got)
      else if Client.fd_pos client fd > 0 then begin
        Client.seek client fd ~pos:0;
        go remaining
      end
    end
  in
  go total

(* [stream] lists the indices of one stream's records in [batch]; each
   record is boxed only when its turn comes. *)
let drive_stream ~cluster ~fs ~files ~applied ~skipped ~synth batch stream =
  let engine = Cluster.engine cluster in
  (* fd stacks per file id: duplicate opens nest, closes pop. *)
  let open_fds : open_state list Ids.File.Tbl.t = Ids.File.Tbl.create 16 in
  let push file st =
    Ids.File.Tbl.replace open_fds file
      (st :: Option.value ~default:[] (Ids.File.Tbl.find_opt open_fds file))
  and pop file =
    match Ids.File.Tbl.find_opt open_fds file with
    | Some (st :: rest) ->
      if rest = [] then Ids.File.Tbl.remove open_fds file
      else Ids.File.Tbl.replace open_fds file rest;
      Some st
    | Some [] | None -> None
  in
  let top file =
    match Ids.File.Tbl.find_opt open_fds file with
    | Some (st :: _) -> Some st
    | Some [] | None -> None
  in
  let do_open client ~cred ~(r : Record.t) ~mode ~created ~start_pos =
    match Ids.File.Tbl.find_opt files r.file with
    | None -> None
    | Some (info : Fs_state.file_info) ->
      if not info.exists then
        if created then Fs_state.recreate fs ~now:r.time info.id
        else raise Exit (* open of a deleted file: skip *);
      let fd = Client.open_file client ~cred ~info ~mode ~created in
      if start_pos > 0 then Client.seek client fd ~pos:start_pos;
      Some { fd; start_pos }
  in
  let apply client (r : Record.t) =
    let cred =
      Cred.make ~user:r.user ~pid:r.pid ~client:r.client ~migrated:r.migrated
    in
    let info () = Ids.File.Tbl.find_opt files r.file in
    let live_info () =
      match info () with
      | Some (i : Fs_state.file_info) when i.exists -> Some i
      | Some _ | None -> None
    in
    let close_session st ~bytes_read ~bytes_written =
      chunked_read client st.fd bytes_read;
      if bytes_written > 0 then
        ignore (Client.write client st.fd ~len:bytes_written);
      Client.close client st.fd
    in
    match r.kind with
    | Record.Open { mode; created; is_dir = _; size = _; start_pos } -> (
      match do_open client ~cred ~r ~mode ~created ~start_pos with
      | Some st ->
        push r.file st;
        incr applied
      | None -> incr skipped)
    | Record.Close { bytes_read; bytes_written; size = _; final_pos = _ } -> (
      let st =
        match pop r.file with
        | Some st -> Some st
        | None ->
          (* Orphan close (hostile or truncated source): fabricate the
             open so the session still exercises the cache path. *)
          let mode =
            match (bytes_read > 0, bytes_written > 0) with
            | _, false -> Record.Read_only
            | true, true -> Record.Read_write
            | false, true -> Record.Write_only
          in
          (match do_open client ~cred ~r ~mode ~created:false ~start_pos:0 with
          | Some st ->
            incr synth;
            Some st
          | None -> None)
      in
      match st with
      | Some st ->
        close_session st ~bytes_read ~bytes_written;
        incr applied
      | None -> incr skipped)
    | Record.Reposition { pos_after; pos_before = _ } -> (
      match top r.file with
      | Some st ->
        Client.seek client st.fd ~pos:pos_after;
        incr applied
      | None -> incr skipped)
    | Record.Delete _ -> (
      match live_info () with
      | Some info ->
        Client.delete client ~cred ~info;
        incr applied
      | None -> incr skipped)
    | Record.Truncate _ -> (
      match live_info () with
      | Some info ->
        Client.truncate client ~cred ~info;
        incr applied
      | None -> incr skipped)
    | Record.Dir_read _ -> (
      match live_info () with
      | Some info when info.is_dir ->
        Client.read_dir client ~cred ~info;
        incr applied
      | Some _ | None -> incr skipped)
    | Record.Shared_read { offset; length } -> (
      match top r.file with
      | Some st ->
        Client.seek client st.fd ~pos:offset;
        chunked_read client st.fd length;
        incr applied
      | None -> incr skipped)
    | Record.Shared_write { offset; length } -> (
      match top r.file with
      | Some st ->
        Client.seek client st.fd ~pos:offset;
        if length > 0 then ignore (Client.write client st.fd ~len:length);
        incr applied
      | None -> incr skipped)
  in
  match stream with
  | [] -> ()
  | first :: _ ->
    let client = Cluster.client cluster (B.client batch first) in
    Engine.spawn engine (fun () ->
        List.iter
          (fun i ->
            let r = B.get batch i in
            (* Absolute time anchoring: sleep to the record's stamp, so
               operation latencies never accumulate as drift.  A record
               whose time has already passed runs immediately. *)
            let dt = r.time -. Engine.now engine in
            if dt > 0.0 then Engine.sleep dt;
            try apply client r with Exit -> incr skipped)
          stream)

let run batch =
  let n = B.length batch in
  let* () = if n = 0 then Error "empty trace: nothing to replay" else Ok () in
  let* scan = scan_trace batch in
  let* () =
    if scan.n_clients > max_clients then
      err "trace needs %d clients; replay supports at most %d" scan.n_clients
        max_clients
    else Ok ()
  in
  let* () =
    if scan.n_servers > max_servers then
      err "trace needs %d servers; replay supports at most %d" scan.n_servers
        max_servers
    else Ok ()
  in
  let* () =
    if List.length scan.file_seeds > max_files then
      err "trace references %d files; replay supports at most %d"
        (List.length scan.file_seeds) max_files
    else Ok ()
  in
  let base = Cluster.default_config in
  let cfg =
    {
      base with
      Cluster.n_clients = max base.Cluster.n_clients scan.n_clients;
      n_servers = max base.Cluster.n_servers scan.n_servers;
      seed = 7;
      (* The replayed trace must contain exactly the foreign workload:
         no trace-daemon or backup records to scrub. *)
      simulate_infrastructure = false;
    }
  in
  let cluster = Cluster.create cfg in
  let fs = Cluster.fs cluster in
  (* Pre-create every file on the server the trace assigns it; imported
     placement survives replay (the minted ids need not match — every
     analysis is aggregate). *)
  let files : Fs_state.file_info Ids.File.Tbl.t =
    Ids.File.Tbl.create (max 16 (List.length scan.file_seeds))
  in
  List.iter
    (fun (id, seed) ->
      let info =
        Fs_state.create_file fs ~now:0.0 ~server:seed.fserver ~dir:seed.fdir
          ~size:seed.fsize ()
      in
      Ids.File.Tbl.replace files (Ids.File.of_int id) info)
    scan.file_seeds;
  (* Partition into per-(client, pid) streams, spawned in sorted key
     order so the event schedule is a pure function of the trace. *)
  let streams : (int * int, int list) Hashtbl.t = Hashtbl.create 64 in
  for i = 0 to n - 1 do
    let key = (B.client batch i, B.pid batch i) in
    Hashtbl.replace streams key
      (i :: Option.value ~default:[] (Hashtbl.find_opt streams key))
  done;
  let applied = ref 0 and skipped = ref 0 and synth = ref 0 in
  Hashtbl.fold (fun key stream acc -> (key, List.rev stream) :: acc) streams []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (_, stream) ->
         drive_stream ~cluster ~fs ~files ~applied ~skipped ~synth batch
           stream);
  (* Slack past the last record covers delayed-write scans and the
     30-second writeback window, so the replayed day ends quiesced. *)
  let horizon = scan.last_time +. 60.0 in
  Sharded.drive cluster ~until:horizon;
  Dfs_obs.Metrics.add m_applied !applied;
  Dfs_obs.Metrics.add m_skipped !skipped;
  Dfs_obs.Metrics.add m_synth !synth;
  Ok
    ( cluster,
      {
        records = n;
        applied = !applied;
        skipped = !skipped;
        synthesized_opens = !synth;
        clients = cfg.Cluster.n_clients;
        servers = cfg.Cluster.n_servers;
        files = List.length scan.file_seeds;
        horizon;
      } )
