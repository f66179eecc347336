type align = Left | Right

type line = Row of string list | Separator

type t = {
  caption : string option;
  columns : (string * align) list;
  mutable lines : line list;  (* reversed *)
  mutable notes : string list;  (* reversed *)
}

let create ?caption ~columns () = { caption; columns; lines = []; notes = [] }

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg "Table.add_row: wrong number of cells";
  t.lines <- Row row :: t.lines

let add_separator t = t.lines <- Separator :: t.lines

let add_note t s = t.notes <- s :: t.notes

let render t =
  let headers = List.map fst t.columns in
  let aligns = Array.of_list (List.map snd t.columns) in
  let rows =
    List.rev_map (function Row r -> Some r | Separator -> None) t.lines
  in
  let widths = Array.of_list (List.map String.length headers) in
  List.iter
    (function
      | Some cells ->
        List.iteri
          (fun i cell -> widths.(i) <- max widths.(i) (String.length cell))
          cells
      | None -> ())
    rows;
  let buf = Buffer.create 1024 in
  let pad align width s =
    let fill = width - String.length s in
    if fill <= 0 then s
    else
      match align with
      | Left -> s ^ String.make fill ' '
      | Right -> String.make fill ' ' ^ s
  in
  let rule () =
    Array.iteri
      (fun i w ->
        if i > 0 then Buffer.add_string buf "-+-";
        Buffer.add_string buf (String.make w '-'))
      widths;
    Buffer.add_char buf '\n'
  in
  let emit_cells cells =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf " | ";
        Buffer.add_string buf (pad aligns.(i) widths.(i) cell))
      cells;
    Buffer.add_char buf '\n'
  in
  (match t.caption with
  | Some c ->
    Buffer.add_string buf c;
    Buffer.add_char buf '\n'
  | None -> ());
  emit_cells headers;
  rule ();
  List.iter (function Some cells -> emit_cells cells | None -> rule ()) rows;
  List.iter
    (fun note ->
      Buffer.add_string buf ("  " ^ note);
      Buffer.add_char buf '\n')
    (List.rev t.notes);
  Buffer.contents buf

let bytes x =
  let abs = Float.abs x in
  if abs >= 1_073_741_824.0 then Printf.sprintf "%.1f GB" (x /. 1_073_741_824.0)
  else if abs >= 1_048_576.0 then Printf.sprintf "%.1f MB" (x /. 1_048_576.0)
  else if abs >= 1024.0 then Printf.sprintf "%.1f KB" (x /. 1024.0)
  else Printf.sprintf "%.0f B" x
