(** Struct-of-arrays trace storage on Bigarray columns.

    A batch holds the same information as a [Record.t array], laid out as
    off-heap columns: a float64 Bigarray for timestamps, int32 Bigarrays
    for the ids and the per-kind integer payload, and an unsigned-int8
    tag byte per record packing the event kind with its boolean flags.
    Analyses iterate the columns with the accessors below instead of
    pattern-matching boxed variants; none of the accessors allocate.
    Column data lives outside the OCaml heap, so batches contribute a
    few words each to GC statistics regardless of record count, and a
    column can be a window straight onto an [mmap]'d trace segment
    (see {!of_columns} and [Segment]).

    Ids and payload values are stored as int32; appending a value outside
    int32 range raises [Invalid_argument] rather than truncating.

    Tag byte layout:
    {v bits 0-2  kind (see the tag_* constants)
       bit  3    migrated
       bits 4-5  open mode (Open records)
       bit  6    created   (Open records)
       bit  7    is_dir    (Open and Delete records) v}

    Payload columns [a]-[d] by kind:
    {v open      a=size       b=start_pos
       close     a=size       b=final_pos  c=bytes_read  d=bytes_written
       seek      a=pos_before b=pos_after
       delete    a=size
       truncate  a=old_size
       dirread   a=bytes
       sread     a=offset     b=length
       swrite    a=offset     b=length v} *)

type t

type f64_col = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type i32_col = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type u8_col = (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

val length : t -> int

(** {1 Kind tags} *)

val tag_open : int
val tag_close : int
val tag_reposition : int
val tag_delete : int
val tag_truncate : int
val tag_dir_read : int
val tag_shared_read : int
val tag_shared_write : int

(** {1 Cursor accessors}

    All O(1) and allocation-free.  Every column has exactly [length b]
    elements, so the Bigarray bounds check on these accessors is the
    batch bounds check: an out-of-range index raises [Invalid_argument].
    Loops that already maintain [0 <= i < length b] can use the
    {!Unsafe} variants to skip it. *)

val time : t -> int -> float

val server : t -> int -> int

val client : t -> int -> int

val user : t -> int -> int

val pid : t -> int -> int

val file : t -> int -> int

val user_id : t -> int -> Ids.User.t

val file_id : t -> int -> Ids.File.t

val tag : t -> int -> int
(** Kind index 0-7; compare against the [tag_*] constants. *)

val migrated : t -> int -> bool

val open_mode : t -> int -> Record.open_mode
(** Meaningful for [tag_open] records only. *)

val is_dir : t -> int -> bool

val a : t -> int -> int

val b : t -> int -> int

val c : t -> int -> int

val d : t -> int -> int

(** {1 Unsafe accessors}

    Same meanings as above with the bounds check elided (fenced behind
    this submodule; the checked accessors are the default).  Only for
    loops whose index is already bounded by [length b] — an out-of-range
    index reads unrelated memory. *)

module Unsafe : sig
  val time : t -> int -> float

  val server : t -> int -> int

  val client : t -> int -> int

  val user : t -> int -> int

  val pid : t -> int -> int

  val file : t -> int -> int

  val user_id : t -> int -> Ids.User.t

  val file_id : t -> int -> Ids.File.t

  val tag : t -> int -> int

  val raw_tag : t -> int -> int

  val migrated : t -> int -> bool

  val open_mode : t -> int -> Record.open_mode

  val is_dir : t -> int -> bool

  val a : t -> int -> int

  val b : t -> int -> int

  val c : t -> int -> int

  val d : t -> int -> int
end

(** {1 Conversions} *)

val of_list : Record.t list -> t

val get : t -> int -> Record.t
(** Rebuild the boxed record at an index (allocates). *)

val kind : t -> int -> Record.kind
(** Rebuild just the boxed kind at an index (allocates). *)

val to_array : t -> Record.t array

val iter : (Record.t -> unit) -> t -> unit

val row_error : t -> int -> string option
(** [None] when record [i] passes {!Record.validate}, else the reason.
    Reads the columns without boxing or allocating for a good record. *)

val equal : t -> t -> bool
(** Structural equality of contents (exact float comparison on times). *)

val concat : t list -> t
(** Concatenate batches in order. A singleton list returns its batch
    unchanged (no copy). *)

val of_columns :
  len:int ->
  times:f64_col ->
  servers:i32_col ->
  clients:i32_col ->
  users:i32_col ->
  pids:i32_col ->
  files:i32_col ->
  tags:u8_col ->
  col_a:i32_col ->
  col_b:i32_col ->
  col_c:i32_col ->
  col_d:i32_col ->
  t
(** Assemble a batch directly from columns — typically windows onto an
    [mmap]'d segment — without copying. Every column must have dimension
    [len]; raises [Invalid_argument] otherwise. *)

(** {1 Building} *)

module Builder : sig
  type batch := t

  type t

  val create : ?capacity:int -> unit -> t

  val length : t -> int

  val add : t -> Record.t -> unit

  val add_from : t -> batch -> int -> unit
  (** Append record [i] of an existing batch (no range re-checks: the
      source columns are already int32). *)

  val append_batch : t -> batch -> unit
  (** Append every record of a batch with one blit per column. *)

  val finish : t -> batch
  (** Trim and return the batch. The builder must not be reused. *)

  val snapshot : t -> batch
  (** Copy the current contents into a batch without disturbing the
      builder; later appends do not affect the returned batch. *)

  val reset : t -> unit
  (** Empty the builder (capacity is kept) so it can accumulate the next
      chunk. *)
end
