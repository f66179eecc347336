(** What a trace reader does when it meets damaged data.

    [Fail] (every reader's default) surfaces the first corruption as an
    error.  [Salvage] keeps the longest valid prefix of the damaged
    source, bumps [trace.corruption.detected] /
    [trace.corruption.salvaged_records], logs a warning, and lets the
    analysis continue — so an hour-long run over a multi-gigabyte spill
    set degrades gracefully instead of dying at hour N. *)

type policy = Fail | Salvage

val of_string : string -> (policy, string) result
(** Parses ["fail"] and ["salvage"] (the [--on-corruption] CLI values). *)

val note : source:string -> salvaged:int -> string -> unit
(** Record one corruption event: bump both counters ([salvaged] records
    were recovered ahead of the damage) and log a warning naming the
    source and reason. *)

val detected : unit -> int
(** Current value of [trace.corruption.detected]. *)

val salvaged_records : unit -> int
(** Current value of [trace.corruption.salvaged_records]. *)
