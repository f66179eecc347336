(** Columnar on-disk trace segments, readable zero-copy via [mmap],
    self-verifying via CRC-32C.

    Layout of one segment (all integers little-endian):

    {v
      offset 0    magic (8 bytes, "\xD7DFSC\x02\x00\x00")
      offset 8    record count n          int64
      offset 16   segment length in bytes int64 (header included)
      offset 24   header CRC-32C          uint32 (over the 128 header
                  bytes with this field zeroed)
      offset 28   column CRC-32C[11]      uint32 each, in column order
                  (times, servers, clients, users, pids, files,
                   col_a..col_d, tags)
      offset 72   reserved, zero to offset 128
      offset 128  times    float64[n]     8-byte aligned
      + 8n        servers  int32[n]       4-byte aligned
      + 4n each   clients, users, pids, files,
                  col_a, col_b, col_c, col_d   int32[n]
      + 44n       tags     uint8[n]
      ...         zero padding to a multiple of 8
    v}

    A file is a sequence of segments; every segment length is a multiple
    of 8, so all column offsets stay naturally aligned.  On little-endian
    hosts (unless [DFS_MMAP=0]) {!batch_of_file} serves each column as a
    Bigarray window straight onto the [Unix.map_file]'d file — no copy,
    no per-record decode; the portable fallback bulk-copies the columns
    with explicit little-endian reads.  Checksums are verified once per
    column over the mapped window (or the source string), and a
    per-process (size, mtime) cache skips re-verification of files that
    already scanned clean.

    Counters: [trace.encoded_bytes] (segment bytes written),
    [trace.mapped_bytes] (column bytes served via [mmap]),
    [trace.decode.skipped_records] (records served without per-record
    decode, on either read path) and [trace.checksum.verified_bytes]
    (column bytes hashed during verification). *)

val magic : string
(** 8-byte file magic ("\xD7DFSC\x02\x00\x00"). *)

val header_bytes : int
(** Fixed segment header size (128). *)

val bytes_per_record : int
(** Column payload bytes per record (45). *)

val segment_bytes : count:int -> int
(** Total encoded size of a segment holding [count] records, padding
    included. *)

val is_segment : string -> bool
(** Does the string start with the segment magic? *)

val mmap_enabled : unit -> bool
(** Whether reads go through [Unix.map_file]: true on little-endian
    hosts unless the [DFS_MMAP] environment variable is [0]/[false]/
    [no]/[off]. Re-read on every call, so tests can toggle it. *)

val encode_batch : Record_batch.t -> string
(** One whole segment, header, checksums and padding included. *)

val write_batch : out_channel -> Record_batch.t -> int
(** Append one segment; returns the bytes written. *)

(** {1 Scanning and salvage} *)

type scan_error = {
  offset : int;  (** byte offset of the first invalid segment *)
  reason : string;  (** one-line diagnostic, ["byte %d: ..."] *)
}

type scan = {
  batches : Record_batch.t list;  (** decoded valid prefix, in order *)
  records : int;  (** total records in [batches] *)
  valid_bytes : int;
      (** length of the longest valid segment-sequence prefix; equals
          [total_bytes] iff the source is clean *)
  total_bytes : int;
  error : scan_error option;  (** [None] iff the source is clean *)
}

val scan_string : ?verify:bool -> string -> scan
(** Walk every segment of an in-memory file image, stopping at the first
    invalid one instead of failing.  [verify] (default true) checks the
    header and column CRCs; structure, extent and tag checks always
    run. *)

val scan_file : ?verify:bool -> string -> (scan, string) result
(** Same over a file (zero-copy when {!mmap_enabled}); [Error] only for
    I/O failures (open/stat/map), never for corruption.  Always hits the
    disk — no verified-file cache — so fsck sees the current bytes. *)

(** {1 Reading} *)

val batch_of_file :
  ?on_corruption:Corruption.policy ->
  string ->
  (Record_batch.t, string) result
(** Read every segment of a file — zero-copy when {!mmap_enabled}, bulk
    column copy otherwise — as one batch; a single-segment file returns
    its mapped batch without copying.  Validation (magic, checksums,
    extents, alignment, tag bytes) is identical on both paths; checksum
    verification is skipped when the file's (size, mtime) already
    scanned clean this process.  Under [Fail] (default) the first
    invalid segment is an [Error]; under [Salvage] the valid prefix is
    returned and the incident is counted via {!Corruption.note}. *)

val batch_of_string :
  ?on_corruption:Corruption.policy ->
  string ->
  (Record_batch.t, string) result
(** The same over an in-memory file image (copy path). *)

val cache_clear : unit -> unit
(** Drop the verified-file cache (tests and fsck --repair use this after
    rewriting files in place). *)
