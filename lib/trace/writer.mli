(** Trace sinks.

    Each simulated file server writes its own trace (the paper gathered
    traces on the four servers only). A writer prepends the format header
    and then encodes records either as text lines ({!Codec}) — for
    humans, goldens and interchange — or as mmap-able, checksummed
    columnar segments ({!Segment}, sealed every 65536 records and on
    {!flush}/close), the machine format, exact on every field; readers
    pick the decoder by sniffing the header. *)

type format = Text | Columnar

val format_of_string : string -> (format, string) result
(** Parses ["text"] and ["columnar"] (the [--trace-format] CLI
    values). *)

type t

val to_buffer : ?format:format -> Buffer.t -> t
(** Defaults to [Text], as do the other constructors. *)

val to_channel : ?format:format -> out_channel -> t

val write : t -> Record.t -> unit

val count : t -> int
(** Number of records written so far. *)

val flush : t -> unit

val with_file : ?format:format -> string -> (t -> 'a) -> 'a
(** [with_file path f] streams the trace into [path ^ ".tmp"]
    (binary-safe), then fsyncs and atomically renames it to [path] once
    [f] returns, fsyncing the directory too.  If [f] raises, the temp
    file is removed and [path] is left untouched — a trace file under
    its final name is always complete. *)
