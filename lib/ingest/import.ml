module Record = Dfs_trace.Record
module Ids = Dfs_trace.Ids
module Corruption = Dfs_trace.Corruption

type stats = {
  rows : int;
  bad_rows : int;
  hosts : int;
  files : int;
  records : int;
  duration : float;
}

let default_source = "<csv>"

(* MSR Cambridge traces stamp rows with Windows FILETIME (100 ns ticks
   since 1601, ~1.2e17 today); hand-written or research CSVs use plain
   seconds.  Anything above this threshold can only be ticks. *)
let filetime_threshold = 1e14

let filetime_tick = 1e-7

type parsed = {
  prows : Snia.row list;  (* reversed *)
  n_rows : int;
  n_bad : int;
  first_error : string option;
}

let parse_rows ~on_corruption ~source text =
  let lines = String.split_on_char '\n' text in
  let state =
    ref { prows = []; n_rows = 0; n_bad = 0; first_error = None }
  in
  let failed = ref None in
  (try
     List.iteri
       (fun i line ->
         let line = match String.length line with
           | n when n > 0 && line.[n - 1] = '\r' -> String.sub line 0 (n - 1)
           | _ -> line
         in
         let line_no = i + 1 in
         if
           String.trim line = ""
           || (String.length line > 0 && line.[0] = '#')
           || Snia.is_header line
         then ()
         else
           match Snia.parse_row line with
           | Ok row ->
             let s = !state in
             state := { s with prows = row :: s.prows; n_rows = s.n_rows + 1 }
           | Error e -> (
             let diagnostic = Printf.sprintf "%s:%d: %s" source line_no e in
             match (on_corruption : Corruption.policy) with
             | Corruption.Fail ->
               failed := Some diagnostic;
               raise Exit
             | Corruption.Salvage ->
               let s = !state in
               state :=
                 {
                   s with
                   n_bad = s.n_bad + 1;
                   first_error =
                     (match s.first_error with
                     | Some _ as e -> e
                     | None -> Some diagnostic);
                 }))
       lines
   with Exit -> ());
  match !failed with
  | Some e -> Error e
  | None ->
    let s = !state in
    (match s.first_error with
    | Some reason -> Corruption.note ~source ~salvaged:s.n_rows reason
    | None -> ());
    Ok s

let of_csv_string ?config ?(n_servers = 4) ?(on_corruption = Corruption.Fail)
    ?(source = default_source) text =
  if n_servers < 1 then Error "n_servers must be >= 1"
  else
    Result.bind (parse_rows ~on_corruption ~source text) @@ fun parsed ->
    if parsed.n_rows = 0 then
      Error (Printf.sprintf "%s: no data rows" source)
    else begin
      let rows = List.rev parsed.prows in
      (* Rebase before scaling: FILETIME magnitudes exceed the float
         mantissa, but differences from the first event do not. *)
      let t_min =
        List.fold_left
          (fun acc (r : Snia.row) -> Float.min acc r.time)
          Float.infinity rows
      in
      let t_max =
        List.fold_left
          (fun acc (r : Snia.row) -> Float.max acc r.time)
          Float.neg_infinity rows
      in
      let scale = if t_max > filetime_threshold then filetime_tick else 1.0 in
      let rows =
        List.stable_sort
          (fun (a : Snia.row) (b : Snia.row) -> Float.compare a.time b.time)
          rows
      in
      let clients = Idmap.create Ids.Client.of_int in
      let users = Idmap.create Ids.User.of_int in
      let pids = Idmap.create Ids.Process.of_int in
      let files = Idmap.create Ids.File.of_int in
      (* Raw block offsets are absolute disk addresses (terabytes on a
         modern volume) but trace positions live in int32 columns:
         rebase each file's offsets to its lowest address and wrap
         anything past 1 GiB, preserving run structure and locality
         while keeping every position representable. *)
      let base_offset : (string, int) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun (r : Snia.row) ->
          let key = Printf.sprintf "%s#%d" r.host r.disk in
          match Hashtbl.find_opt base_offset key with
          | Some b when b <= r.offset -> ()
          | Some _ | None -> Hashtbl.replace base_offset key r.offset)
        rows;
      let extent_mask = (1 lsl 30) - 1 in
      let infer = Infer.create ?config () in
      List.iter
        (fun (r : Snia.row) ->
          let client = Idmap.get clients r.host in
          let user = Idmap.get users r.host in
          let pid = Idmap.get pids r.host in
          let file_key = Printf.sprintf "%s#%d" r.host r.disk in
          let file = Idmap.get files file_key in
          let server =
            Ids.Server.of_int (Idmap.index files file_key mod n_servers)
          in
          let offset =
            (r.offset - Hashtbl.find base_offset file_key) land extent_mask
          in
          Infer.feed infer ~client ~user ~pid ~file ~server
            ~time:((r.time -. t_min) *. scale)
            ~op:(match r.op with Snia.Read -> `Read | Snia.Write -> `Write)
            ~offset ~size:r.size)
        rows;
      let records = Infer.finish infer in
      (* Inference is total on in-domain rows; a validation failure here
         is an importer bug, and must surface as a diagnosable error
         rather than poison downstream consumers. *)
      let invalid =
        List.find_map
          (fun r ->
            match Record.validate r with Ok _ -> None | Error e -> Some e)
          records
      in
      match invalid with
      | Some e ->
        Error (Printf.sprintf "%s: importer produced invalid record: %s" source e)
      | None ->
        let duration =
          match (records, List.rev records) with
          | first :: _, last :: _ -> last.Record.time -. first.Record.time
          | _ -> 0.0
        in
        Ok
          ( records,
            {
              rows = parsed.n_rows;
              bad_rows = parsed.n_bad;
              hosts = Idmap.size clients;
              files = Idmap.size files;
              records = List.length records;
              duration;
            } )
    end

let of_csv_file ?config ?n_servers ?on_corruption path =
  match
    In_channel.with_open_bin path (fun ic ->
        (* a failed open names the path, a failed read does not *)
        try In_channel.input_all ic
        with Sys_error e -> raise (Sys_error (path ^ ": " ^ e)))
  with
  | text -> of_csv_string ?config ?n_servers ?on_corruption ~source:path text
  | exception Sys_error e -> Error e
