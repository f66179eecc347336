(** Kernel-call trace records.

    These mirror the events the paper's instrumented Sprite kernels logged
    (Section 3): opens, closes, repositions (lseek), deletes, truncates,
    directory reads, and the read/write events on files undergoing
    concurrent write-sharing that feed the consistency simulations.

    As in the paper, individual read/write calls are {e not} logged;
    instead positions are recorded at open/reposition/close time, which is
    enough to deduce the exact range of bytes accessed, and each close
    carries the access's total bytes read/written. *)

type open_mode = Read_only | Write_only | Read_write

val pp_open_mode : Format.formatter -> open_mode -> unit

type kind =
  | Open of {
      mode : open_mode;
      created : bool;  (** the open created the file *)
      is_dir : bool;
      size : int;  (** file size at open time *)
      start_pos : int;  (** initial offset (non-zero for append opens) *)
    }
  | Close of {
      size : int;  (** file size at close time *)
      final_pos : int;  (** file offset at close time *)
      bytes_read : int;
      bytes_written : int;
    }
  | Reposition of { pos_before : int; pos_after : int }
  | Delete of { size : int; is_dir : bool }
  | Truncate of { old_size : int }  (** truncation to zero length *)
  | Dir_read of { bytes : int }  (** user-level directory data read *)
  | Shared_read of { offset : int; length : int }
  | Shared_write of { offset : int; length : int }

type t = {
  time : float;  (** seconds since trace start *)
  server : Ids.Server.t;  (** server that logged the record *)
  client : Ids.Client.t;
  user : Ids.User.t;
  pid : Ids.Process.t;
  migrated : bool;  (** issued by a migrated process *)
  file : Ids.File.t;
  kind : kind;
}

val kind_name : kind -> string
(** Short tag, also used by the codec ("open", "close", ...). *)

val compare_time : t -> t -> int
(** Order by time, then by logging server (merge tie-break). *)

val max_field : int
(** Largest id or payload value a record may carry ([0x7FFF_FFFF]):
    the columnar format stores them in int32 columns. *)

val validate : t -> (t, string) result
(** [validate r] is [Ok r] when the record is well-formed — finite,
    non-negative time; ids, sizes, positions, offsets and byte counts
    within [0 .. max_field] — and [Error reason] (one line, no context
    prefix) otherwise.  Every reader enforces it (text lines as they
    are decoded, columnar files on their columns) and so does every
    importer, so hostile foreign traces cannot poison sorting, time
    arithmetic or the analyses. *)

val validate_fields :
  time:float ->
  server:int ->
  client:int ->
  user:int ->
  pid:int ->
  file:int ->
  kind ->
  (unit, string) result
(** {!validate} on a record's fields before they are boxed: a negative
    raw id must be reported, and [Ids.*.of_int] asserts on one. *)

val pp : Format.formatter -> t -> unit

val equal : t -> t -> bool
