module Record = Dfs_trace.Record
module Ids = Dfs_trace.Ids
module B = Dfs_trace.Record_batch

type t = { file_opens : int; sharing_opens : int; recall_opens : int }

module Itbl = Dfs_util.Itbl

(* An open handle: only whether it was opened for writing matters at its
   close. *)
type handle = { pid : int; writer : bool }

module Handles = Itbl.Handles (struct
  type t = handle

  let pid h = h.pid
end)

(* Per file: how many clients have it open, and how many of those
   clients hold a handle open for writing. *)
type openers = { mutable clients : int; mutable writing : int }

type acc = {
  mutable file_opens : int;
  mutable sharing : int;
  mutable recalls : int;
  handles : Handles.table;  (* keyed by [Itbl.pair client file] *)
  files : openers Itbl.t;
  last_writer : int Itbl.t;  (* file -> the client that last wrote it *)
}

let acc_create () =
  {
    file_opens = 0;
    sharing = 0;
    recalls = 0;
    handles = Handles.create 1024;
    files = Itbl.create 1024;
    last_writer = Itbl.create 256;
  }

let is_writer = function
  | Record.Write_only | Record.Read_write -> true
  | Record.Read_only -> false

let any_writer = List.exists (fun h -> h.writer)

let on_open acc ~client ~pid ~file ~writer =
  acc.file_opens <- acc.file_opens + 1;
  (match Itbl.find_opt acc.last_writer file with
  | Some w when w <> client ->
    acc.recalls <- acc.recalls + 1;
    Itbl.remove acc.last_writer file
  | Some _ | None -> ());
  let f =
    match Itbl.find_opt acc.files file with
    | Some f -> f
    | None ->
      let f = { clients = 0; writing = 0 } in
      Itbl.replace acc.files file f;
      f
  in
  let key = Itbl.pair client file in
  let before = Handles.open_under acc.handles key in
  if before = [] then f.clients <- f.clients + 1;
  if writer && not (any_writer before) then f.writing <- f.writing + 1;
  Handles.push acc.handles key { pid; writer };
  if f.clients >= 2 && f.writing > 0 then acc.sharing <- acc.sharing + 1

let on_close acc ~client ~pid ~file ~wrote =
  let key = Itbl.pair client file in
  match Handles.pop acc.handles key ~pid with
  | None -> ()
  | Some h ->
    let f = Itbl.find acc.files file in
    let after = Handles.open_under acc.handles key in
    if h.writer && not (any_writer after) then f.writing <- f.writing - 1;
    if after = [] then begin
      f.clients <- f.clients - 1;
      if f.clients = 0 then Itbl.remove acc.files file
    end;
    if wrote then Itbl.replace acc.last_writer file client

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
    Itbl.remove acc.last_writer (B.Unsafe.file batch i)

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
