let header = "#dfs-trace v1"

let mode_to_string = function
  | Record.Read_only -> "r"
  | Record.Write_only -> "w"
  | Record.Read_write -> "rw"

let mode_of_string = function
  | "r" -> Ok Record.Read_only
  | "w" -> Ok Record.Write_only
  | "rw" -> Ok Record.Read_write
  | s -> Error (Printf.sprintf "bad open mode %S" s)

let bool_to_string b = if b then "1" else "0"

let bool_of_string = function
  | "1" -> Ok true
  | "0" -> Ok false
  | s -> Error (Printf.sprintf "bad bool %S" s)

let encode (r : Record.t) =
  let b = Buffer.create 96 in
  let tab () = Buffer.add_char b '\t' in
  Buffer.add_string b (Printf.sprintf "%.6f" r.time);
  tab ();
  Buffer.add_string b (string_of_int (Ids.Server.to_int r.server));
  tab ();
  Buffer.add_string b (string_of_int (Ids.Client.to_int r.client));
  tab ();
  Buffer.add_string b (string_of_int (Ids.User.to_int r.user));
  tab ();
  Buffer.add_string b (string_of_int (Ids.Process.to_int r.pid));
  tab ();
  Buffer.add_string b (bool_to_string r.migrated);
  tab ();
  Buffer.add_string b (string_of_int (Ids.File.to_int r.file));
  tab ();
  Buffer.add_string b (Record.kind_name r.kind);
  let field s =
    tab ();
    Buffer.add_string b s
  in
  let int_field i = field (string_of_int i) in
  (match r.kind with
  | Open { mode; created; is_dir; size; start_pos } ->
    field (mode_to_string mode);
    field (bool_to_string created);
    field (bool_to_string is_dir);
    int_field size;
    int_field start_pos
  | Close { size; final_pos; bytes_read; bytes_written } ->
    int_field size;
    int_field final_pos;
    int_field bytes_read;
    int_field bytes_written
  | Reposition { pos_before; pos_after } ->
    int_field pos_before;
    int_field pos_after
  | Delete { size; is_dir } ->
    int_field size;
    field (bool_to_string is_dir)
  | Truncate { old_size } -> int_field old_size
  | Dir_read { bytes } -> int_field bytes
  | Shared_read { offset; length } ->
    int_field offset;
    int_field length
  | Shared_write { offset; length } ->
    int_field offset;
    int_field length);
  Buffer.contents b

let ( let* ) = Result.bind

let int_of field s =
  match int_of_string_opt s with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "bad int for %s: %S" field s)

let float_of field s =
  match float_of_string_opt s with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "bad float for %s: %S" field s)

let decode line =
  let fields = String.split_on_char '\t' line in
  match fields with
  | time :: server :: client :: user :: pid :: migrated :: file :: kind :: rest
    ->
    let* time = float_of "time" time in
    let* server = int_of "server" server in
    let* client = int_of "client" client in
    let* user = int_of "user" user in
    let* pid = int_of "pid" pid in
    let* migrated = bool_of_string migrated in
    let* file = int_of "file" file in
    let* kind =
      match (kind, rest) with
      | "open", [ mode; created; is_dir; size; start_pos ] ->
        let* mode = mode_of_string mode in
        let* created = bool_of_string created in
        let* is_dir = bool_of_string is_dir in
        let* size = int_of "size" size in
        let* start_pos = int_of "start_pos" start_pos in
        Ok (Record.Open { mode; created; is_dir; size; start_pos })
      | "close", [ size; final_pos; bytes_read; bytes_written ] ->
        let* size = int_of "size" size in
        let* final_pos = int_of "final_pos" final_pos in
        let* bytes_read = int_of "bytes_read" bytes_read in
        let* bytes_written = int_of "bytes_written" bytes_written in
        Ok (Record.Close { size; final_pos; bytes_read; bytes_written })
      | "seek", [ pos_before; pos_after ] ->
        let* pos_before = int_of "pos_before" pos_before in
        let* pos_after = int_of "pos_after" pos_after in
        Ok (Record.Reposition { pos_before; pos_after })
      | "delete", [ size; is_dir ] ->
        let* size = int_of "size" size in
        let* is_dir = bool_of_string is_dir in
        Ok (Record.Delete { size; is_dir })
      | "truncate", [ old_size ] ->
        let* old_size = int_of "old_size" old_size in
        Ok (Record.Truncate { old_size })
      | "dirread", [ bytes ] ->
        let* bytes = int_of "bytes" bytes in
        Ok (Record.Dir_read { bytes })
      | "sread", [ offset; length ] ->
        let* offset = int_of "offset" offset in
        let* length = int_of "length" length in
        Ok (Record.Shared_read { offset; length })
      | "swrite", [ offset; length ] ->
        let* offset = int_of "offset" offset in
        let* length = int_of "length" length in
        Ok (Record.Shared_write { offset; length })
      | k, _ ->
        Error (Printf.sprintf "bad kind %S or wrong field count" k)
    in
    (* Text traces are the format foreign/hand-written data arrives in;
       reject out-of-domain values here so every text path is covered,
       and before boxing, since [Ids.*.of_int] asserts on a negative id. *)
    let* () = Record.validate_fields ~time ~server ~client ~user ~pid ~file kind in
    Ok
      {
        Record.time;
        server = Ids.Server.of_int server;
        client = Ids.Client.of_int client;
        user = Ids.User.of_int user;
        pid = Ids.Process.of_int pid;
        migrated;
        file = Ids.File.of_int file;
        kind;
      }
  | _ -> Error "too few fields"
