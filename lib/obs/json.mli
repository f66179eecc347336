(** A minimal JSON tree and printer.

    The toolchain image carries no JSON library, so the observability
    layer hand-rolls the small subset it writes: machine-readable metric
    snapshots, Chrome traces and fsck verdicts.  Nothing in the program
    parses JSON; the tests carry their own parser. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering.  Floats always carry a ['.'] or
    exponent so they read back as floats; NaN becomes [null]. *)

val to_buffer : Buffer.t -> t -> unit
(** {!to_string}, appended to a buffer. *)

val to_pretty_string : t -> string
(** Indented rendering ending in a newline, for files meant to be opened
    by people. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** Field lookup on [Obj] ({e first} binding when a key repeats);
    [None] on anything else. *)
