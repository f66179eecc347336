(* Columnar on-disk trace segments.

   A segment is a fixed 128-byte header followed by the batch
   columns, stored whole and naturally aligned, little-endian:

     offset 0    magic (8 bytes, "\xD7DFSC\x02\x00\x00")
     offset 8    record count n          (int64 LE)
     offset 16   segment length in bytes (int64 LE, header included)
     offset 24   header CRC-32C          (uint32 LE, over the 128
                 header bytes with this field zeroed)
     offset 28   column CRC-32C[11]      (uint32 LE each: times,
                 servers, clients, users, pids, files, col_a..col_d,
                 tags)
     offset 72   reserved (zeros to offset 128)
     offset 128  times    float64[n]   -- 8-byte aligned
     + 8n        servers  int32[n]     -- 4-byte aligned (8n is)
     + 4n each   clients, users, pids, files,
                 col_a, col_b, col_c, col_d (int32[n])
     + 44n       tags     uint8[n]
     ...         zero padding to the next multiple of 8

   Because every column is a contiguous slab at a naturally aligned
   offset and the segment length is a multiple of 8, a reader can serve
   the columns zero-copy: each column becomes a Bigarray window onto the
   [Unix.map_file]'d file, with no per-record decode.  Checksums are
   verified once per column over the same mapped window (or the in-memory
   string on the portable path), so the hot analysis path stays
   zero-copy; a per-process cache of already-verified files keeps
   repeated reads of the same unchanged file from re-hashing it.

   The zero-copy path reinterprets raw bytes in host byte order, so it
   is only enabled on little-endian hosts (and can be forced off with
   DFS_MMAP=0); the portable fallback decodes the same bytes with
   explicit little-endian reads into fresh Bigarrays — still a bulk
   column copy, never a per-record decode. *)

module A1 = Bigarray.Array1
module B = Record_batch
module Crc32c = Dfs_util.Crc32c

let magic = "\xD7DFSC\x02\x00\x00"

let header_bytes = 128

let bytes_per_record = 45

let segment_bytes ~count = (header_bytes + (bytes_per_record * count) + 7) land lnot 7

let is_segment s = String.length s >= 8 && String.sub s 0 8 = magic

(* Flag bits a well-formed tag byte may carry, per kind (see the tag
   layout in [Record_batch]).  Anything outside this mask, or an open
   with mode bits 3, marks a corrupt column. *)
let flag_mask = function
  | 0 -> 0xF8 (* open: migrated, mode, created, is_dir *)
  | 3 -> 0x88 (* delete: migrated, is_dir *)
  | _ -> 0x08 (* others: migrated only *)

let tag_ok raw =
  let kind = raw land 0x07 in
  raw land lnot (flag_mask kind) land 0xF8 = 0
  && (kind <> 0 || (raw lsr 4) land 0x03 <> 3)

let mmap_enabled () =
  (not Sys.big_endian)
  &&
  match Sys.getenv_opt "DFS_MMAP" with
  | Some ("0" | "false" | "no" | "off") -> false
  | Some _ | None -> true

let m_encoded_bytes = Dfs_obs.Metrics.counter "trace.encoded_bytes"

let m_mapped_bytes = Dfs_obs.Metrics.counter "trace.mapped_bytes"

let m_skipped = Dfs_obs.Metrics.counter "trace.decode.skipped_records"

let m_verified_bytes = Dfs_obs.Metrics.counter "trace.checksum.verified_bytes"

(* Column byte offsets relative to the segment start. *)
let off_times _n = header_bytes

let off_servers n = header_bytes + (8 * n)

let off_clients n = off_servers n + (4 * n)

let off_users n = off_clients n + (4 * n)

let off_pids n = off_users n + (4 * n)

let off_files n = off_pids n + (4 * n)

let off_col_a n = off_files n + (4 * n)

let off_col_b n = off_col_a n + (4 * n)

let off_col_c n = off_col_b n + (4 * n)

let off_col_d n = off_col_c n + (4 * n)

let off_tags n = off_col_d n + (4 * n)

let n_columns = 11

let column_names =
  [| "times"; "servers"; "clients"; "users"; "pids"; "files"; "col_a";
     "col_b"; "col_c"; "col_d"; "tags" |]

(* (relative offset, byte length) of column [i] in declaration order. *)
let column_extent ~n i =
  match i with
  | 0 -> (off_times n, 8 * n)
  | 1 -> (off_servers n, 4 * n)
  | 2 -> (off_clients n, 4 * n)
  | 3 -> (off_users n, 4 * n)
  | 4 -> (off_pids n, 4 * n)
  | 5 -> (off_files n, 4 * n)
  | 6 -> (off_col_a n, 4 * n)
  | 7 -> (off_col_b n, 4 * n)
  | 8 -> (off_col_c n, 4 * n)
  | 9 -> (off_col_d n, 4 * n)
  | 10 -> (off_tags n, n)
  | _ -> invalid_arg "Segment.column_extent"

let header_crc_off = 24

let col_crc_off i = 28 + (4 * i)

let get_u32 s off = Int32.to_int (String.get_int32_le s off) land 0xFFFFFFFF

(* CRC of the 128 header bytes with the header-CRC field zeroed. *)
let header_crc_of_string header ~pos =
  let c = Crc32c.update_string Crc32c.init header ~pos ~len:header_crc_off in
  let c = Crc32c.update_string c "\000\000\000\000" ~pos:0 ~len:4 in
  let c =
    Crc32c.update_string c header
      ~pos:(pos + header_crc_off + 4)
      ~len:(header_bytes - header_crc_off - 4)
  in
  Crc32c.finalize c

(* -- encoding ------------------------------------------------------------- *)

let encode_batch batch =
  let n = B.length batch in
  let seg_len = segment_bytes ~count:n in
  let buf = Bytes.make seg_len '\000' in
  Bytes.blit_string magic 0 buf 0 (String.length magic);
  Bytes.set_int64_le buf 8 (Int64.of_int n);
  Bytes.set_int64_le buf 16 (Int64.of_int seg_len);
  let t0 = off_times n in
  for i = 0 to n - 1 do
    Bytes.set_int64_le buf
      (t0 + (8 * i))
      (Int64.bits_of_float (B.Unsafe.time batch i))
  done;
  let put_i32 base get =
    for i = 0 to n - 1 do
      Bytes.set_int32_le buf (base + (4 * i)) (Int32.of_int (get batch i))
    done
  in
  put_i32 (off_servers n) B.Unsafe.server;
  put_i32 (off_clients n) B.Unsafe.client;
  put_i32 (off_users n) B.Unsafe.user;
  put_i32 (off_pids n) B.Unsafe.pid;
  put_i32 (off_files n) B.Unsafe.file;
  put_i32 (off_col_a n) B.Unsafe.a;
  put_i32 (off_col_b n) B.Unsafe.b;
  put_i32 (off_col_c n) B.Unsafe.c;
  put_i32 (off_col_d n) B.Unsafe.d;
  let tg = off_tags n in
  for i = 0 to n - 1 do
    Bytes.unsafe_set buf (tg + i) (Char.unsafe_chr (B.Unsafe.raw_tag batch i))
  done;
  (* Transient string views of [buf] for hashing; each view is only
     read inside its call, and all writes below target header bytes
     that no later view covers with stale expectations. *)
  for i = 0 to n_columns - 1 do
    let off, len = column_extent ~n i in
    let crc =
      Crc32c.finalize
        (Crc32c.update_string Crc32c.init (Bytes.unsafe_to_string buf)
           ~pos:off ~len)
    in
    Bytes.set_int32_le buf (col_crc_off i) (Int32.of_int crc)
  done;
  let hcrc = header_crc_of_string (Bytes.unsafe_to_string buf) ~pos:0 in
  Bytes.set_int32_le buf header_crc_off (Int32.of_int hcrc);
  Dfs_obs.Metrics.add m_encoded_bytes seg_len;
  Bytes.unsafe_to_string buf

let write_batch oc batch =
  let s = encode_batch batch in
  output_string oc s;
  String.length s

(* -- header parsing -------------------------------------------------------- *)

type hdr_info = {
  n : int;
  seg_len : int;
  col_crcs : int array;  (** stored column CRCs, in column order *)
}

(* [header] is the first [min header_bytes (total - pos)] bytes of a
   segment that starts at absolute offset [pos] in a source of [total]
   bytes.  Validates magic, header checksum (when [verify]), extents
   and alignment. *)
let parse_header ~verify ~pos ~total header =
  let hlen = String.length header in
  if hlen < 8 then Error (Printf.sprintf "byte %d: truncated segment header" pos)
  else if String.sub header 0 8 <> magic then
    Error
      (Printf.sprintf "byte %d: bad segment magic %S" pos (String.sub header 0 8))
  else if hlen < header_bytes then
    Error (Printf.sprintf "byte %d: truncated segment header" pos)
  else begin
    let stored = get_u32 header header_crc_off in
    let got = if verify then header_crc_of_string header ~pos:0 else stored in
    if stored <> got then
      Error
        (Printf.sprintf
           "byte %d: header checksum mismatch (stored 0x%08x, computed 0x%08x)"
           (pos + header_crc_off) stored got)
    else begin
      let n64 = String.get_int64_le header 8 in
      let len64 = String.get_int64_le header 16 in
      if
        Int64.compare n64 0L < 0
        || Int64.compare n64 (Int64.of_int max_int) > 0
      then Error (Printf.sprintf "byte %d: bad record count %Ld" pos n64)
      else begin
        let n = Int64.to_int n64 in
        let seg_len = Int64.to_int len64 in
        if seg_len <> segment_bytes ~count:n then
          Error
            (Printf.sprintf
               "byte %d: misaligned segment (length %d for %d records, want %d)"
               pos seg_len n (segment_bytes ~count:n))
        else if pos + seg_len > total then
          Error
            (Printf.sprintf
               "byte %d: truncated segment (%d bytes declared, %d available)"
               pos seg_len (total - pos))
        else
          Ok
            {
              n;
              seg_len;
              col_crcs =
                Array.init n_columns (fun i -> get_u32 header (col_crc_off i));
            }
      end
    end
  end

let check_tags ~pos get n =
  let bad = ref None in
  (try
     for i = 0 to n - 1 do
       let raw = get i in
       if not (tag_ok raw) then begin
         bad := Some (Printf.sprintf "byte %d: malformed tag 0x%02x" (pos + i) raw);
         raise Exit
       end
     done
   with Exit -> ());
  match !bad with None -> Ok () | Some e -> Error e

(* -- column checksum verification ------------------------------------------ *)

(* [crc_of ~off ~len] hashes the column extent at segment-relative
   [off]; [abs] converts a relative offset to a source offset for the
   error message. *)
let verify_columns ~abs ~n ~crc_of stored =
  let rec loop i =
    if i >= n_columns then Ok ()
    else begin
      let off, len = column_extent ~n i in
      let got = crc_of ~off ~len in
      if got <> stored.(i) then
        Error
          (Printf.sprintf
             "byte %d: checksum mismatch in column %s (stored 0x%08x, \
              computed 0x%08x)"
             (abs off) column_names.(i) stored.(i) got)
      else loop (i + 1)
    end
  in
  let r = loop 0 in
  Dfs_obs.Metrics.add m_verified_bytes (bytes_per_record * n);
  r

(* -- verified-file cache --------------------------------------------------- *)

(* Checksums are verified once per file per process: after a file scans
   clean with verification on, its (size, mtime) is remembered and later
   reads of the unchanged file skip the CRC work (structure and tag
   checks still run).  fsck bypasses this cache. *)
let verified_cache : (string, int * float) Hashtbl.t = Hashtbl.create 64

let cache_mutex = Mutex.create ()

let cache_key path =
  match Unix.stat path with
  | { Unix.st_size; st_mtime; _ } -> Some (st_size, st_mtime)
  | exception Unix.Unix_error _ -> None

let cache_mem path =
  match cache_key path with
  | None -> false
  | Some key ->
    Mutex.lock cache_mutex;
    let hit = Hashtbl.find_opt verified_cache path = Some key in
    Mutex.unlock cache_mutex;
    hit

let cache_add path =
  match cache_key path with
  | None -> ()
  | Some key ->
    Mutex.lock cache_mutex;
    Hashtbl.replace verified_cache path key;
    Mutex.unlock cache_mutex

let cache_clear () =
  Mutex.lock cache_mutex;
  Hashtbl.reset verified_cache;
  Mutex.unlock cache_mutex

(* -- portable (copy) decode ------------------------------------------------ *)

let decode_segment_of_string s ~pos ~n =
  let times = A1.create Bigarray.float64 Bigarray.c_layout n in
  let t0 = pos + off_times n in
  for i = 0 to n - 1 do
    A1.unsafe_set times i
      (Int64.float_of_bits (String.get_int64_le s (t0 + (8 * i))))
  done;
  let read_i32 base =
    let col = A1.create Bigarray.int32 Bigarray.c_layout n in
    for i = 0 to n - 1 do
      A1.unsafe_set col i (String.get_int32_le s (base + (4 * i)))
    done;
    col
  in
  let servers = read_i32 (pos + off_servers n) in
  let clients = read_i32 (pos + off_clients n) in
  let users = read_i32 (pos + off_users n) in
  let pids = read_i32 (pos + off_pids n) in
  let files = read_i32 (pos + off_files n) in
  let col_a = read_i32 (pos + off_col_a n) in
  let col_b = read_i32 (pos + off_col_b n) in
  let col_c = read_i32 (pos + off_col_c n) in
  let col_d = read_i32 (pos + off_col_d n) in
  let tags = A1.create Bigarray.int8_unsigned Bigarray.c_layout n in
  let tg = pos + off_tags n in
  for i = 0 to n - 1 do
    A1.unsafe_set tags i (Char.code (String.unsafe_get s (tg + i)))
  done;
  Result.map
    (fun () ->
      Dfs_obs.Metrics.add m_skipped n;
      B.of_columns ~len:n ~times ~servers ~clients ~users ~pids ~files ~tags
        ~col_a ~col_b ~col_c ~col_d)
    (check_tags ~pos:(pos + off_tags n)
       (fun i -> A1.unsafe_get tags i)
       n)

(* -- scan core ------------------------------------------------------------- *)

type scan_error = { offset : int; reason : string }

type scan = {
  batches : B.t list;
  records : int;
  valid_bytes : int;
  total_bytes : int;
  error : scan_error option;
}

let scan_string ?(verify = true) s =
  let total = String.length s in
  let rec go pos acc records =
    if pos >= total then
      { batches = List.rev acc; records; valid_bytes = pos;
        total_bytes = total; error = None }
    else begin
      let stop reason =
        { batches = List.rev acc; records; valid_bytes = pos;
          total_bytes = total; error = Some { offset = pos; reason } }
      in
      let header = String.sub s pos (min header_bytes (total - pos)) in
      match parse_header ~verify ~pos ~total header with
      | Error reason -> stop reason
      | Ok h -> (
        let cols_ok =
          if not verify then Ok ()
          else
            verify_columns
              ~abs:(fun off -> pos + off)
              ~n:h.n
              ~crc_of:(fun ~off ~len ->
                Crc32c.string_sub s ~pos:(pos + off) ~len)
              h.col_crcs
        in
        match cols_ok with
        | Error reason -> stop reason
        | Ok () -> (
          match decode_segment_of_string s ~pos ~n:h.n with
          | Error reason -> stop reason
          | Ok batch -> go (pos + h.seg_len) (batch :: acc) (records + h.n)))
    end
  in
  go 0 [] 0

(* -- zero-copy (mmap) read ------------------------------------------------- *)

(* [Unix.map_file] accepts arbitrary byte offsets (it aligns the mapping
   internally), and the mapping outlives the descriptor, so each column
   becomes its own window and the fd is closed right after the loop. *)
let map_col (type a b) fd (kind : (a, b) Bigarray.kind) ~pos n :
    (a, b, Bigarray.c_layout) A1.t =
  Bigarray.array1_of_genarray
    (Unix.map_file fd ~pos:(Int64.of_int pos) kind Bigarray.c_layout false
       [| n |])

let map_segment fd ~pos ~n =
  if n = 0 then
    Ok
      (B.of_columns ~len:0
         ~times:(A1.create Bigarray.float64 Bigarray.c_layout 0)
         ~servers:(A1.create Bigarray.int32 Bigarray.c_layout 0)
         ~clients:(A1.create Bigarray.int32 Bigarray.c_layout 0)
         ~users:(A1.create Bigarray.int32 Bigarray.c_layout 0)
         ~pids:(A1.create Bigarray.int32 Bigarray.c_layout 0)
         ~files:(A1.create Bigarray.int32 Bigarray.c_layout 0)
         ~tags:(A1.create Bigarray.int8_unsigned Bigarray.c_layout 0)
         ~col_a:(A1.create Bigarray.int32 Bigarray.c_layout 0)
         ~col_b:(A1.create Bigarray.int32 Bigarray.c_layout 0)
         ~col_c:(A1.create Bigarray.int32 Bigarray.c_layout 0)
         ~col_d:(A1.create Bigarray.int32 Bigarray.c_layout 0))
  else begin
    let i32 off = map_col fd Bigarray.int32 ~pos:(pos + off) n in
    let times = map_col fd Bigarray.float64 ~pos:(pos + off_times n) n in
    let servers = i32 (off_servers n) in
    let clients = i32 (off_clients n) in
    let users = i32 (off_users n) in
    let pids = i32 (off_pids n) in
    let files = i32 (off_files n) in
    let col_a = i32 (off_col_a n) in
    let col_b = i32 (off_col_b n) in
    let col_c = i32 (off_col_c n) in
    let col_d = i32 (off_col_d n) in
    let tags = map_col fd Bigarray.int8_unsigned ~pos:(pos + off_tags n) n in
    Dfs_obs.Metrics.add m_mapped_bytes (bytes_per_record * n);
    Result.map
      (fun () ->
        Dfs_obs.Metrics.add m_skipped n;
        B.of_columns ~len:n ~times ~servers ~clients ~users ~pids ~files
          ~tags ~col_a ~col_b ~col_c ~col_d)
      (check_tags ~pos:(pos + off_tags n)
         (fun i -> A1.unsafe_get tags i)
         n)
  end

let really_read fd buf ~pos ~len =
  let got = ref 0 and eof = ref false in
  while !got < len && not !eof do
    let k = Unix.read fd buf (pos + !got) (len - !got) in
    if k = 0 then eof := true else got := !got + k
  done;
  !got

let scan_mapped fd ~verify =
  let total = (Unix.fstat fd).Unix.st_size in
  let header = Bytes.create header_bytes in
  let rec go pos acc records =
    if pos >= total then
      { batches = List.rev acc; records; valid_bytes = pos;
        total_bytes = total; error = None }
    else begin
      let stop reason =
        { batches = List.rev acc; records; valid_bytes = pos;
          total_bytes = total; error = Some { offset = pos; reason } }
      in
      ignore (Unix.lseek fd pos Unix.SEEK_SET);
      let got = really_read fd header ~pos:0 ~len:header_bytes in
      match parse_header ~verify ~pos ~total (Bytes.sub_string header 0 got) with
      | Error reason -> stop reason
      | Ok h -> (
        let cols_ok =
          if not verify then Ok ()
          else begin
            (* One byte window over the whole segment serves all eleven
               column hashes without copying. *)
            let win = map_col fd Bigarray.int8_unsigned ~pos h.seg_len in
            verify_columns
              ~abs:(fun off -> pos + off)
              ~n:h.n
              ~crc_of:(fun ~off ~len -> Crc32c.bigstring_sub win ~pos:off ~len)
              h.col_crcs
          end
        in
        match cols_ok with
        | Error reason -> stop reason
        | Ok () -> (
          match map_segment fd ~pos ~n:h.n with
          | Error reason -> stop reason
          | Ok batch -> go (pos + h.seg_len) (batch :: acc) (records + h.n)))
    end
  in
  go 0 [] 0

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let scan_file ?(verify = true) path =
  try
    if mmap_enabled () then begin
      let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> Ok (scan_mapped fd ~verify))
    end
    else Ok (scan_string ~verify (read_all path))
  with
  | Unix.Unix_error (err, _, _) ->
    Error (Printf.sprintf "%s: %s" path (Unix.error_message err))
  | Sys_error e -> Error e

(* -- reading with a corruption policy -------------------------------------- *)

let apply_policy ~on_corruption ~source scan =
  match scan.error with
  | None -> Ok (B.concat scan.batches)
  | Some { offset = _; reason } -> (
    match (on_corruption : Corruption.policy) with
    | Corruption.Fail -> Error reason
    | Corruption.Salvage ->
      Corruption.note ~source ~salvaged:scan.records reason;
      Ok (B.concat scan.batches))

let batch_of_file ?(on_corruption = Corruption.Fail) path =
  let verify = not (cache_mem path) in
  match scan_file ~verify path with
  | Error _ as e -> e
  | Ok scan ->
    if verify && scan.error = None then cache_add path;
    apply_policy ~on_corruption ~source:path scan

let batch_of_string ?(on_corruption = Corruption.Fail) s =
  apply_policy ~on_corruption ~source:"<segment string>"
    (scan_string ~verify:true s)
