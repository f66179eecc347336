(** Bounded-memory chunked destination for trace records.

    The simulator's servers used to materialize every record as a boxed
    [Record.t] in per-server lists; at production scale the full trace no
    longer fits.  A sink accumulates records in a columnar
    {!Record_batch.Builder} and seals a chunk every [chunk_records]
    appends.  Sealed chunks either stay in memory as batches, or — when a
    spill directory is configured — are written to disk as checksummed
    columnar {!Segment} files with only the path and record count kept
    live.  Spill files are sealed crash-safely (tmp + fsync + atomic
    rename + directory fsync), so a chunk is never observable torn under
    its final name.

    A finished sink yields a {!chunks} value: an ordered, replayable
    stream of batches.  Re-streaming loads spilled segments back one at a
    time, so consumers hold at most one chunk per traversal. *)

type spill = { dir : string; name : string }
(** Spilled segments land in [dir] (created if missing) as
    [<name>-<seq>.dfsc].  [name] must be unique per concurrently-open
    sink within [dir]. *)

type chunk = Mem of Record_batch.t | Seg of { path : string; len : int }

type chunks = { segments : chunk list; total : int }
(** An immutable, ordered sequence of sealed chunks. *)

type t
(** An open sink. *)

val default_chunk_records : int
(** 32768 — a few MB of columns per open chunk. *)

val create : ?chunk_records:int -> ?spill:spill -> unit -> t
(** @raise Invalid_argument when [chunk_records < 1]. *)

val emit : t -> Record.t -> unit

val emit_from : t -> Record_batch.t -> int -> unit
(** [emit_from t b i] appends record [i] of batch [b] column-by-column,
    without boxing an intermediate [Record.t]. *)

val chunks_now : t -> chunks
(** Non-destructive snapshot: sealed chunks plus a copy of the open
    chunk.  The sink keeps accepting records, and the snapshot never
    changes.  The open-chunk copy is not spilled. *)

val close : t -> chunks
(** Seal the open chunk (spilling it if configured) and return the final
    segment list.  The sink technically remains usable; records emitted
    after [close] begin a fresh chunk sequence. *)

(** {1 Reading} *)

val length : chunks -> int
(** Total records across all segments. *)

val chunk_count : chunks -> int

val spilled_count : chunks -> int
(** How many segments live on disk rather than in memory. *)

val load_chunk : ?on_corruption:Corruption.policy -> chunk -> Record_batch.t
(** In-memory chunks are returned as-is; spilled segments are decoded
    from disk.  Under [Fail] (default) corruption raises; under
    [Salvage] the chunk's valid record prefix is returned and counted.
    @raise Failure when a segment file is missing/corrupt (policy
    [Fail]) or unreadable (either policy). *)

val to_seq : ?on_corruption:Corruption.policy -> chunks -> Record_batch.t Seq.t
(** Replayable: every traversal re-walks the segment list (re-loading
    spilled segments), so multi-pass analyses can fold it repeatedly. *)

val iter_batches : (Record_batch.t -> unit) -> chunks -> unit

val iter : (Record.t -> unit) -> chunks -> unit
(** Boxed-record iteration (allocates one record at a time). *)

val to_records : chunks -> Record.t list
(** Materialize as a boxed list (compatibility paths and tests only). *)

val to_batch : chunks -> Record_batch.t
(** Materialize as one contiguous batch (allocates the whole trace). *)

val of_batch : Record_batch.t -> chunks

val discard : chunks -> unit
(** Delete spilled segment files; the value must not be read again. *)

val clear : t -> unit
(** Release everything the sink holds: in-memory chunks become
    collectable, spilled segment files are deleted, and the open chunk
    is emptied.  Snapshots taken earlier that reference spilled segments
    must not be read afterwards. *)
