module Record = Dfs_trace.Record
module Ids = Dfs_trace.Ids
module B = Dfs_trace.Record_batch

type t = { file_opens : int; sharing_opens : int; recall_opens : int }

type opener = { client : int; mutable count : int; mutable writers : int }

type acc = {
  mutable file_opens : int;
  mutable sharing : int;
  mutable recalls : int;
  open_tbl : opener list ref Ids.File.Tbl.t;
  last_writer : int Ids.File.Tbl.t;
  (* mode at close is carried by the matching open; track per handle *)
  handle_modes : (int * int * int, Record.open_mode list ref) Hashtbl.t;
}

let acc_create () =
  {
    file_opens = 0;
    sharing = 0;
    recalls = 0;
    open_tbl = Ids.File.Tbl.create 1024;
    last_writer = Ids.File.Tbl.create 256;
    handle_modes = Hashtbl.create 1024;
  }

let is_writer = function
  | Record.Write_only | Record.Read_write -> true
  | Record.Read_only -> false

let acc_record acc batch i =
  (* the tag read is bounds-checked and validates [i]; the remaining
     reads reuse the same index through the unsafe mirror *)
  let handle_key i =
    (B.Unsafe.client batch i, B.Unsafe.pid batch i, B.Unsafe.file batch i)
  in
  let tag = B.tag batch i in
  if tag = B.tag_open then begin
    if not (B.Unsafe.is_dir batch i) then begin
      let mode = B.Unsafe.open_mode batch i in
      let file = B.Unsafe.file_id batch i in
      acc.file_opens <- acc.file_opens + 1;
      let cl = B.Unsafe.client batch i in
      (match Ids.File.Tbl.find_opt acc.last_writer file with
      | Some w when w <> cl ->
        acc.recalls <- acc.recalls + 1;
        Ids.File.Tbl.remove acc.last_writer file
      | Some _ | None -> ());
      let openers =
        match Ids.File.Tbl.find_opt acc.open_tbl file with
        | Some l -> l
        | None ->
          let l = ref [] in
          Ids.File.Tbl.replace acc.open_tbl file l;
          l
      in
      (match List.find_opt (fun o -> o.client = cl) !openers with
      | Some o ->
        o.count <- o.count + 1;
        if is_writer mode then o.writers <- o.writers + 1
      | None ->
        openers :=
          { client = cl; count = 1; writers = (if is_writer mode then 1 else 0) }
          :: !openers);
      if
        List.length !openers >= 2
        && List.exists (fun o -> o.writers > 0) !openers
      then acc.sharing <- acc.sharing + 1;
      let modes =
        match Hashtbl.find_opt acc.handle_modes (handle_key i) with
        | Some l -> l
        | None ->
          let l = ref [] in
          Hashtbl.replace acc.handle_modes (handle_key i) l;
          l
      in
      modes := mode :: !modes
    end
  end
  else if tag = B.tag_close then begin
    match Hashtbl.find_opt acc.handle_modes (handle_key i) with
    | None -> ()
    | Some modes -> (
      match !modes with
      | [] -> ()
      | mode :: rest ->
        modes := rest;
        if rest = [] then Hashtbl.remove acc.handle_modes (handle_key i);
        let cl = B.Unsafe.client batch i in
        let file = B.Unsafe.file_id batch i in
        (match Ids.File.Tbl.find_opt acc.open_tbl file with
        | Some openers -> (
          match List.find_opt (fun o -> o.client = cl) !openers with
          | Some o ->
            o.count <- o.count - 1;
            if is_writer mode then o.writers <- max 0 (o.writers - 1);
            if o.count <= 0 then begin
              openers := List.filter (fun o' -> o'.client <> cl) !openers;
              if !openers = [] then Ids.File.Tbl.remove acc.open_tbl file
            end
          | None -> ())
        | None -> ());
        if B.Unsafe.d batch i > 0 then
          Ids.File.Tbl.replace acc.last_writer file cl)
  end
  else if tag = B.tag_delete then
    Ids.File.Tbl.remove acc.last_writer (B.Unsafe.file_id batch i)

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
