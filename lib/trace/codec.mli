(** Line-oriented trace encoding.

    One record per line, tab-separated:
    {v time server client user pid migrated file kind <kind fields...> v}
    A trace file begins with a header line identifying the format version,
    so readers can reject files written by incompatible versions. *)

val header : string
(** The version header line (without newline). *)

val encode : Record.t -> string
(** One line, without the trailing newline.

    Precision contract: times are printed with [%.6f], so one
    encode/decode cycle quantizes the time to the nearest microsecond
    (within 5e-7 of the original); times already quantized — including
    everything previously read from a text trace — round-trip exactly,
    as does every other field.  Use the columnar format ({!Segment},
    [Writer.Columnar]) when bit-exact times matter. *)

val decode : string -> (Record.t, string) result
(** Parse one line and check it with {!Record.validate_fields}. The
    error string describes the first problem found. *)
