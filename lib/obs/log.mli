(** Leveled progress reporting to stderr.

    Replaces the ad-hoc [Printf.eprintf] progress lines that used to be
    scattered through the CLI and dataset generation.  Three levels:

    - [Quiet]: only {!error} output;
    - [Normal] (default): {!info} progress lines;
    - [Verbose]: additionally {!debug} detail.

    The [DFS_LOG] environment variable ([quiet]/[normal]/[verbose], or
    [0]/[1]/[2]) overrides whatever the program sets with {!set_level}. *)

type level = Quiet | Normal | Verbose

val set_level : level -> unit
(** Request a level; a valid [DFS_LOG] environment setting wins. *)

val error : ('a, unit, string, unit) format4 -> 'a
(** Printed at every level. *)

val warn : ('a, unit, string, unit) format4 -> 'a
(** Printed at [Normal] and [Verbose], prefixed with [warning:]. *)

val info : ('a, unit, string, unit) format4 -> 'a
(** Printed at [Normal] and [Verbose]. *)

val debug : ('a, unit, string, unit) format4 -> 'a
(** Printed only at [Verbose]. *)
