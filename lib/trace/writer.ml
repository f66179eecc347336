type format = Text | Columnar

let format_of_string = function
  | "text" -> Ok Text
  | "columnar" -> Ok Columnar
  | s -> Error (Printf.sprintf "bad trace format %S (expected text|columnar)" s)

(* Columnar output buffers records and seals a whole segment every
   [columnar_segment_records] (and at [flush]/close), so archived traces
   stay mmap-able in bounded-size pieces. *)
let columnar_segment_records = 65_536

type mode = Text_mode | Columnar_mode of Record_batch.Builder.t

type t = {
  emit : string -> unit;
  do_flush : unit -> unit;
  mutable count : int;
  mode : mode;
}

(* The header goes out at creation, not on the first record, so a trace
   with zero records is still a valid (header-only) file: text gets its
   header line, columnar an empty segment. *)
let make format emit do_flush =
  let mode =
    match format with
    | Text ->
      emit Codec.header;
      emit "\n";
      Text_mode
    | Columnar ->
      emit (Segment.encode_batch (Record_batch.of_list []));
      Columnar_mode (Record_batch.Builder.create ~capacity:4096 ())
  in
  { emit; do_flush; count = 0; mode }

let to_buffer ?(format = Text) buf =
  make format (Buffer.add_string buf) (fun () -> ())

let to_channel ?(format = Text) oc =
  make format (output_string oc) (fun () -> Stdlib.flush oc)

let seal_segment t builder =
  if Record_batch.Builder.length builder > 0 then begin
    t.emit (Segment.encode_batch (Record_batch.Builder.snapshot builder));
    Record_batch.Builder.reset builder
  end

let write t r =
  (match t.mode with
  | Text_mode ->
    t.emit (Codec.encode r);
    t.emit "\n"
  | Columnar_mode builder ->
    Record_batch.Builder.add builder r;
    if Record_batch.Builder.length builder >= columnar_segment_records then
      seal_segment t builder);
  t.count <- t.count + 1

let count t = t.count

let flush t =
  (match t.mode with
  | Text_mode -> ()
  | Columnar_mode builder -> seal_segment t builder);
  t.do_flush ()

(* Crash-safe: the trace streams into [path ^ ".tmp"] and only claims
   its final name once fully written and fsynced.  The user callback [f]
   runs exactly once (it may be a whole simulation), so only the
   open/seal syscalls go through the retry loop — not [f] itself. *)
let with_file ?format path f =
  let tmp = Durable.tmp_path path in
  let oc =
    Io_retry.run ~op:"trace-open" ~path (fun () -> open_out_bin tmp)
  in
  match
    let t = to_channel ?format oc in
    let result = f t in
    flush t;
    result
  with
  | result ->
    Io_retry.run ~op:"trace-seal" ~path (fun () ->
        Durable.fsync_channel oc);
    close_out oc;
    Io_retry.run ~op:"trace-seal" ~path (fun () ->
        Durable.rename_into_place ~tmp ~path);
    result
  | exception e ->
    close_out_noerr oc;
    Durable.unlink_noerr tmp;
    raise e
