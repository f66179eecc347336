(** A minimal JSON tree, printer and parser.

    The toolchain image carries no JSON library, so the observability
    layer hand-rolls the small subset it needs: machine-readable metric
    snapshots, trace spans (JSONL), Chrome profiles and fsck verdicts,
    plus a parser so tests can round-trip what was written. *)

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

val to_pretty_string : t -> string
(** Indented rendering ending in a newline, for files meant to be opened
    by people. *)

exception Parse_error of string

val max_depth : int
(** Maximum container nesting the parser accepts (512).  Deeper input
    yields a parse error rather than a stack overflow. *)

val parse : string -> (t, string) result
(** Strict single-value parse.  [\uXXXX] escapes decode to UTF-8,
    including surrogate pairs (a high surrogate followed by an escaped
    low surrogate becomes one supplementary-plane character; lone
    surrogates are passed through as three-byte sequences).  Duplicate
    object keys are preserved in order; {!member} returns the first. *)

val parse_exn : string -> t
(** @raise Parse_error on malformed input. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** Field lookup on [Obj] ({e first} binding when a key repeats);
    [None] on anything else. *)

val to_float_opt : t -> float option
(** Accepts [Int] and [Float]. *)

val to_int_opt : t -> int option

val to_string_opt : t -> string option
