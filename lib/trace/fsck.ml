(* Trace-file verification and repair.

   [check] classifies a file by content (the same magic sniff the
   readers use), walks it with the format's validator, and reports a
   machine-readable verdict: how many records are intact, how long the
   valid prefix is, and what the first damage looks like.  [--repair]
   truncates a damaged file to its longest valid prefix — whole
   segments (columnar), whole lines (text) — and removes orphaned
   [.tmp] files left by an interrupted atomic seal.

   Files that look like neither trace format are reported as [Unknown]
   and never touched: a repair tool that truncates files it cannot
   parse is worse than the crash it cleans up after. *)

type status =
  | Clean
  | Corrupt
  | Repaired
  | Orphan_tmp
  | Unknown
  | Io_error

let status_to_string = function
  | Clean -> "ok"
  | Corrupt -> "corrupt"
  | Repaired -> "repaired"
  | Orphan_tmp -> "orphan-tmp"
  | Unknown -> "unknown"
  | Io_error -> "error"

type verdict = {
  path : string;
  format : string;  (* columnar | text | tmp | unknown *)
  status : status;
  records : int;
  valid_bytes : int;
  total_bytes : int;
  reason : string option;
  repaired : bool;
}

let verdict_to_json v =
  Dfs_obs.Json.Obj
    [
      ("path", Dfs_obs.Json.String v.path);
      ("format", Dfs_obs.Json.String v.format);
      ("status", Dfs_obs.Json.String (status_to_string v.status));
      ("records", Dfs_obs.Json.Int v.records);
      ("valid_bytes", Dfs_obs.Json.Int v.valid_bytes);
      ("total_bytes", Dfs_obs.Json.Int v.total_bytes);
      ( "reason",
        match v.reason with
        | None -> Dfs_obs.Json.Null
        | Some r -> Dfs_obs.Json.String r );
      ("repaired", Dfs_obs.Json.Bool v.repaired);
    ]

(* -- per-format validation ------------------------------------------------- *)

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* (records, valid_bytes, error) for a text trace: the valid prefix ends
   after the last well-formed line's newline. *)
let check_text s =
  let total = String.length s in
  let line_end pos =
    match String.index_from_opt s pos '\n' with
    | Some nl -> (String.sub s pos (nl - pos), nl + 1)
    | None -> (String.sub s pos (total - pos), total)
  in
  let header, body = line_end 0 in
  if header <> Codec.header then
    (0, 0, Some (Printf.sprintf "line 1: bad trace header %S" header))
  else begin
    let records = ref 0
    and valid = ref body
    and line_no = ref 1
    and err = ref None in
    let pos = ref body in
    while !err = None && !pos < total do
      let line, next = line_end !pos in
      incr line_no;
      if String.equal line "" then begin
        valid := next;
        pos := next
      end
      else
        match Codec.decode line with
        | Ok _ ->
          incr records;
          valid := next;
          pos := next
        | Error e ->
          err := Some (Printf.sprintf "line %d: %s" !line_no e)
    done;
    (!records, !valid, !err)
  end

(* A structural verdict for one file, before any repair. *)
let check path =
  match Unix.stat path with
  | exception Unix.Unix_error (e, _, _) ->
    {
      path;
      format = "unknown";
      status = Io_error;
      records = 0;
      valid_bytes = 0;
      total_bytes = 0;
      reason = Some (Unix.error_message e);
      repaired = false;
    }
  | { Unix.st_size = total_bytes; _ } -> (
    if Durable.is_tmp path then
      {
        path;
        format = "tmp";
        status = Orphan_tmp;
        records = 0;
        valid_bytes = 0;
        total_bytes;
        reason = Some "orphaned temp file from an interrupted seal";
        repaired = false;
      }
    else
      match
        let prefix =
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              let n = min 8 (in_channel_length ic) in
              really_input_string ic n)
        in
        if Segment.is_segment prefix then `Columnar else `Maybe_text
      with
      | exception Sys_error e ->
        {
          path;
          format = "unknown";
          status = Io_error;
          records = 0;
          valid_bytes = 0;
          total_bytes;
          reason = Some e;
          repaired = false;
        }
      | `Columnar -> (
        match Segment.scan_file ~verify:true path with
        | Error e ->
          {
            path;
            format = "columnar";
            status = Io_error;
            records = 0;
            valid_bytes = 0;
            total_bytes;
            reason = Some e;
            repaired = false;
          }
        | Ok scan ->
          {
            path;
            format = "columnar";
            status = (if scan.Segment.error = None then Clean else Corrupt);
            records = scan.Segment.records;
            valid_bytes = scan.Segment.valid_bytes;
            total_bytes = scan.Segment.total_bytes;
            reason =
              Option.map
                (fun e -> e.Segment.reason)
                scan.Segment.error;
            repaired = false;
          })
      | `Maybe_text ->
        let s = read_all path in
        (* Only a file that actually starts with the text trace header
           is ours to verify (and possibly truncate); anything else is
           reported unknown and never touched. *)
        let hdr = Codec.header in
        if
          String.length s >= String.length hdr
          && String.sub s 0 (String.length hdr) = hdr
          && (String.length s = String.length hdr
             || s.[String.length hdr] = '\n')
        then begin
          let records, valid_bytes, err = check_text s in
          {
            path;
            format = "text";
            status = (if err = None then Clean else Corrupt);
            records;
            valid_bytes;
            total_bytes;
            reason = err;
            repaired = false;
          }
        end
        else
          {
            path;
            format = "unknown";
            status = Unknown;
            records = 0;
            valid_bytes = 0;
            total_bytes;
            reason = Some "not a recognized trace format";
            repaired = false;
          })

(* -- repair ---------------------------------------------------------------- *)

let fsync_path path =
  match Unix.openfile path [ Unix.O_WRONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let truncate_to path len =
  Io_retry.run ~op:"fsck-repair" ~path (fun () ->
      Unix.truncate path len;
      fsync_path path;
      Durable.fsync_dir (Filename.dirname path))

(* Truncating a columnar file to zero valid bytes would leave an empty
   file that no longer sniffs as columnar; an empty sealed segment keeps
   it self-describing. *)
let rewrite_empty_columnar path =
  ignore
    (Durable.replace ~op:"fsck-repair" ~path (fun oc ->
         output_string oc (Segment.encode_batch (Record_batch.of_list []))))

let repair_verdict v =
  match (v.status, v.format) with
  | Orphan_tmp, _ ->
    Io_retry.run ~op:"fsck-repair" ~path:v.path (fun () ->
        Durable.unlink_noerr v.path;
        Durable.fsync_dir (Filename.dirname v.path));
    { v with status = Repaired; repaired = true }
  | Corrupt, "columnar" ->
    let total_bytes =
      if v.valid_bytes = 0 then begin
        rewrite_empty_columnar v.path;
        Segment.segment_bytes ~count:0
      end
      else begin
        truncate_to v.path v.valid_bytes;
        v.valid_bytes
      end
    in
    Segment.cache_clear ();
    { v with status = Repaired; repaired = true; total_bytes }
  | Corrupt, "text" ->
    let total_bytes =
      if v.valid_bytes = 0 then begin
        (* header damaged or file empty: a header-only file is the empty
           trace *)
        ignore
          (Durable.replace ~op:"fsck-repair" ~path:v.path (fun oc ->
               output_string oc Codec.header;
               output_char oc '\n'));
        String.length Codec.header + 1
      end
      else begin
        truncate_to v.path v.valid_bytes;
        v.valid_bytes
      end
    in
    { v with status = Repaired; repaired = true; total_bytes }
  | _ -> v

let check_file ?(repair = false) path =
  let v = check path in
  match v.status with
  | (Corrupt | Orphan_tmp) when repair -> (
    match repair_verdict v with
    | v' -> v'
    | exception e ->
      {
        v with
        status = Io_error;
        reason = Some (Printf.sprintf "repair failed: %s" (Printexc.to_string e));
      })
  | _ -> v

(* -- directory expansion --------------------------------------------------- *)

(* [.dfsb] was the retired varint format's extension: listing it reports
   old archives as [Unknown] rather than passing over them. *)
let trace_extensions = [ ".dfsc"; ".dfsb"; ".trace"; ".txt"; ".tmp" ]

let expand_path path =
  if Sys.file_exists path && Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.filter_map (fun name ->
           if List.exists (Filename.check_suffix name) trace_extensions then
             Some (Filename.concat path name)
           else None)
  else [ path ]

let check_paths ?repair paths =
  List.concat_map expand_path paths |> List.map (check_file ?repair)

(* Exit code for a verdict set: 0 all clean, 1 corruption was found
   (even if repaired), 2 an I/O error prevented a full answer. *)
let exit_code verdicts =
  List.fold_left
    (fun code v ->
      match v.status with
      | Io_error -> max code 2
      | Corrupt | Repaired | Orphan_tmp | Unknown -> max code 1
      | Clean -> code)
    0 verdicts
