(** Plain-text table rendering for reports, in the style of the paper's
    tables: a caption, a header row, aligned columns, and footnotes. *)

type align = Left | Right

type t

val create : ?caption:string -> columns:(string * align) list -> unit -> t

val add_row : t -> string list -> unit
(** The row must have exactly as many cells as there are columns. *)

val add_separator : t -> unit
(** A horizontal rule between row groups. *)

val add_note : t -> string -> unit
(** Footnote text printed under the table. *)

val render : t -> string

val bytes : float -> string
(** Human-readable byte count ("7.2 MB"). *)
