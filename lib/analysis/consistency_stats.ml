module Record = Dfs_trace.Record
module Ids = Dfs_trace.Ids
module B = Dfs_trace.Record_batch

type t = { file_opens : int; sharing_opens : int; recall_opens : int }

module Itbl = Dfs_util.Itbl

(* An open handle: its client and pid match it at its close; whether it
   was opened for writing decides write-sharing. *)
type handle = { client : int; pid : int; writer : bool }

(* Per file, in one record: every open handle, newest first (the first
   one with a close's client and pid is the top of that handle's
   stack), and the client that last wrote the file, or -1. *)
type file_state = { mutable handles : handle list; mutable last_writer : int }

type acc = {
  mutable file_opens : int;
  mutable sharing : int;
  mutable recalls : int;
  files : file_state Itbl.t;
}

let acc_create () =
  { file_opens = 0; sharing = 0; recalls = 0; files = Itbl.create 1024 }

let is_writer = function
  | Record.Write_only | Record.Read_write -> true
  | Record.Read_only -> false

let rec without client pid = function
  | [] -> raise Not_found
  | h :: rest ->
    if h.client = client && h.pid = pid then rest else h :: without client pid rest

let on_open acc ~client ~pid ~file ~writer =
  acc.file_opens <- acc.file_opens + 1;
  let f =
    match Itbl.find_opt acc.files file with
    | Some f -> f
    | None ->
      let f = { handles = []; last_writer = -1 } in
      Itbl.replace acc.files file f;
      f
  in
  if f.last_writer >= 0 && f.last_writer <> client then begin
    acc.recalls <- acc.recalls + 1;
    f.last_writer <- -1
  end;
  f.handles <- { client; pid; writer } :: f.handles;
  (* open on two clients or more, at least one of them writing *)
  if
    List.exists (fun h -> h.client <> client) f.handles
    && List.exists (fun h -> h.writer) f.handles
  then acc.sharing <- acc.sharing + 1

let on_close acc ~client ~pid ~file ~wrote =
  match Itbl.find_opt acc.files file with
  | None -> ()
  | Some f -> (
    match without client pid f.handles with
    | handles ->
      f.handles <- handles;
      if wrote then f.last_writer <- client
    | exception Not_found -> ())

let acc_record acc batch i =
  (* the tag read is bounds-checked and validates [i]; the remaining
     reads reuse the same index through the unsafe mirror *)
  let tag = B.tag batch i in
  if tag = B.tag_open then begin
    if not (B.Unsafe.is_dir batch i) then
      on_open acc ~client:(B.Unsafe.client batch i) ~pid:(B.Unsafe.pid batch i)
        ~file:(B.Unsafe.file batch i)
        ~writer:(is_writer (B.Unsafe.open_mode batch i))
  end
  else if tag = B.tag_close then
    on_close acc ~client:(B.Unsafe.client batch i) ~pid:(B.Unsafe.pid batch i)
      ~file:(B.Unsafe.file batch i)
      ~wrote:(B.Unsafe.d batch i > 0)
  else if tag = B.tag_delete then
    match Itbl.find_opt acc.files (B.Unsafe.file batch i) with
    | Some f -> f.last_writer <- -1
    | None -> ()

let acc_finish acc =
  {
    file_opens = acc.file_opens;
    sharing_opens = acc.sharing;
    recall_opens = acc.recalls;
  }

let analyze batch =
  let acc = acc_create () in
  for i = 0 to B.length batch - 1 do
    acc_record acc batch i
  done;
  acc_finish acc

let pct a b = if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b

let sharing_pct t = pct t.sharing_opens t.file_opens

let recall_pct t = pct t.recall_opens t.file_opens
