type open_mode = Read_only | Write_only | Read_write

type kind =
  | Open of {
      mode : open_mode;
      created : bool;
      is_dir : bool;
      size : int;
      start_pos : int;
    }
  | Close of {
      size : int;
      final_pos : int;
      bytes_read : int;
      bytes_written : int;
    }
  | Reposition of { pos_before : int; pos_after : int }
  | Delete of { size : int; is_dir : bool }
  | Truncate of { old_size : int }
  | Dir_read of { bytes : int }
  | Shared_read of { offset : int; length : int }
  | Shared_write of { offset : int; length : int }

type t = {
  time : float;
  server : Ids.Server.t;
  client : Ids.Client.t;
  user : Ids.User.t;
  pid : Ids.Process.t;
  migrated : bool;
  file : Ids.File.t;
  kind : kind;
}

let kind_name = function
  | Open _ -> "open"
  | Close _ -> "close"
  | Reposition _ -> "seek"
  | Delete _ -> "delete"
  | Truncate _ -> "truncate"
  | Dir_read _ -> "dirread"
  | Shared_read _ -> "sread"
  | Shared_write _ -> "swrite"

let compare_time a b =
  let c = Float.compare a.time b.time in
  if c <> 0 then c else Ids.Server.compare a.server b.server

(* Shared input validation for every reader and importer: foreign or
   hand-written traces must not be able to smuggle non-finite times
   (which poison sorting and time arithmetic), negative
   sizes/offsets/ids, or values past the columnar format's int32
   columns into the pipeline.  One line, no backtrace — callers prepend
   file/line context.  The ids arrive unboxed, because [Ids.*.of_int]
   rejects a negative id with an assertion. *)
let max_field = 0x7FFF_FFFF

let validate_fields ~time ~server ~client ~user ~pid ~file kind =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let non_negative fields k =
    let rec go = function
      | [] -> k ()
      | (name, v) :: rest ->
        if v < 0 then err "negative %s %d in %s record" name v (kind_name kind)
        else if v > max_field then
          err "%s %d in %s record exceeds the 32-bit trace format" name v
            (kind_name kind)
        else go rest
    in
    go fields
  in
  if not (Float.is_finite time) then err "non-finite time %f" time
  else if time < 0.0 then err "negative time %f" time
  else
    non_negative
      [
        ("server id", server);
        ("client id", client);
        ("user id", user);
        ("pid", pid);
        ("file id", file);
      ]
      (fun () ->
        let payload =
          match kind with
          | Open { size; start_pos; _ } ->
            [ ("size", size); ("start_pos", start_pos) ]
          | Close { size; final_pos; bytes_read; bytes_written } ->
            [
              ("size", size);
              ("final_pos", final_pos);
              ("bytes_read", bytes_read);
              ("bytes_written", bytes_written);
            ]
          | Reposition { pos_before; pos_after } ->
            [ ("pos_before", pos_before); ("pos_after", pos_after) ]
          | Delete { size; _ } -> [ ("size", size) ]
          | Truncate { old_size } -> [ ("old_size", old_size) ]
          | Dir_read { bytes } -> [ ("bytes", bytes) ]
          | Shared_read { offset; length } | Shared_write { offset; length } ->
            [ ("offset", offset); ("length", length) ]
        in
        non_negative payload (fun () -> Ok ()))

let validate (t : t) =
  Result.map
    (fun () -> t)
    (validate_fields ~time:t.time
       ~server:(Ids.Server.to_int t.server)
       ~client:(Ids.Client.to_int t.client)
       ~user:(Ids.User.to_int t.user)
       ~pid:(Ids.Process.to_int t.pid)
       ~file:(Ids.File.to_int t.file)
       t.kind)

let equal a b =
  Float.equal a.time b.time
  && Ids.Server.equal a.server b.server
  && Ids.Client.equal a.client b.client
  && Ids.User.equal a.user b.user
  && Ids.Process.equal a.pid b.pid
  && Bool.equal a.migrated b.migrated
  && Ids.File.equal a.file b.file
  && a.kind = b.kind
