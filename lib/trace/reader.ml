let default_source = "<trace>"

(* Under [Salvage], a parse failure keeps the records decoded ahead of
   the damage and records the incident; under [Fail] it surfaces as the
   reader's [Error].  [count] is how many records the prefix holds. *)
let finish_policy ~on_corruption ~source ~count ~ok = function
  | None -> Ok ok
  | Some reason -> (
    match (on_corruption : Corruption.policy) with
    | Corruption.Fail -> Error reason
    | Corruption.Salvage ->
      Corruption.note ~source ~salvaged:count reason;
      Ok ok)

(* A file in no trace format is parsed as text, and its first "line"
   can be the whole file: quote a bounded prefix of it. *)
let quoted_prefix line =
  let max_quoted = 32 in
  if String.length line <= max_quoted then Printf.sprintf "%S" line
  else Printf.sprintf "%S..." (String.sub line 0 max_quoted)

(* [lines] is a Seq of raw lines including the header. *)
let parse_lines ~on_corruption ~source lines =
  let builder = Record_batch.Builder.create () in
  let rec records line_no lines =
    match lines () with
    | Seq.Nil -> None
    | Seq.Cons ("", rest) -> records (line_no + 1) rest
    | Seq.Cons (line, rest) -> (
      match Codec.decode line with
      | Ok r ->
        Record_batch.Builder.add builder r;
        records (line_no + 1) rest
      | Error e -> Some (Printf.sprintf "line %d: %s" line_no e))
  in
  let err =
    match lines () with
    | Seq.Nil -> Some "empty trace"
    | Seq.Cons (first, rest) ->
      if String.equal first Codec.header then records 2 rest
      else Some (Printf.sprintf "bad trace header %s" (quoted_prefix first))
  in
  let count = Record_batch.Builder.length builder in
  finish_policy ~on_corruption ~source ~count
    ~ok:(Record_batch.Builder.finish builder)
    err

(* Segment checks prove structure and integrity, not the domain of the
   values: scan every record's columns ([Record_batch.row_error] boxes
   nothing for a good row).  Under [Fail] the first bad record is the
   error; under [Salvage] every bad record is dropped and the incident
   is counted like any other corruption. *)
let validate_batch ~on_corruption ~source batch =
  let n = Record_batch.length batch in
  let rec first_bad i =
    if i >= n then None
    else
      match Record_batch.row_error batch i with
      | None -> first_bad (i + 1)
      | Some e -> Some (Printf.sprintf "record %d: %s" i e)
  in
  match first_bad 0 with
  | None -> Ok batch
  | Some reason -> (
    match (on_corruption : Corruption.policy) with
    | Corruption.Fail -> Error reason
    | Corruption.Salvage ->
      let builder = Record_batch.Builder.create ~capacity:n () in
      for i = 0 to n - 1 do
        if Record_batch.row_error batch i = None then
          Record_batch.Builder.add_from builder batch i
      done;
      let kept = Record_batch.Builder.finish builder in
      Corruption.note ~source ~salvaged:(Record_batch.length kept) reason;
      Ok kept)

let batch_of_string ?(on_corruption = Corruption.Fail)
    ?(source = default_source) s =
  if Segment.is_segment s then
    Result.bind
      (Segment.batch_of_string ~on_corruption s)
      (validate_batch ~on_corruption ~source)
  else
    parse_lines ~on_corruption ~source
      (List.to_seq (String.split_on_char '\n' s))

let lines_of_channel ic =
  let rec next () =
    match input_line ic with
    | line -> Seq.Cons (line, next)
    | exception End_of_file -> Seq.Nil
  in
  next

let with_channel path k =
  let ic = open_in_bin path in
  (* [close_in_noerr]: a raising close inside [~finally] would mask the
     real failure (and [Fun.protect] would turn it into [Finally_raised]);
     the descriptor is released either way.  A failed open names the
     path; a failed read (a directory opens, then reads [EISDIR]) does
     not, so it gains it here. *)
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      try k ic with Sys_error e -> raise (Sys_error (path ^ ": " ^ e)))

(* Peek at the first magic-sized chunk without consuming it. *)
let starts_with_segment ic =
  let n = String.length Segment.magic in
  let buf = Bytes.create n in
  let got = input ic buf 0 n in
  seek_in ic 0;
  Segment.is_segment (Bytes.sub_string buf 0 got)

let batch_of_file ?(on_corruption = Corruption.Fail) path =
  with_channel path (fun ic ->
      if starts_with_segment ic then
        (* [Segment.batch_of_file] can serve the columns zero-copy. *)
        Result.bind
          (Segment.batch_of_file ~on_corruption path)
          (validate_batch ~on_corruption ~source:path)
      else parse_lines ~on_corruption ~source:path (lines_of_channel ic))
