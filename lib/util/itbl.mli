(** Int-keyed hash tables, shared by the block cache and the analysis
    folds.  Keys hash with [Hashtbl.hash], exactly as the generic
    [Hashtbl] does, so a table created at the same size iterates in the
    same bucket order as a polymorphic [(int, _) Hashtbl.t]. *)

include Hashtbl.S with type key = int

val pair : int -> int -> int
(** [pair hi lo] packs two trace ids into one key: [hi lsl 31 lor lo].
    Every id that reaches an analysis is in [[0, 2{^31} - 1]] (the
    readers and importers check each record with
    [Dfs_trace.Record.validate_fields], and the columns are int32), so
    the key fits OCaml's 63-bit int and no two pairs share one. *)

(** Open handles, matched last-in first-out per handle.  A handle is
    (client, pid, file); the handles of one (client, file) pair are kept
    together under [pair client file], newest first, and each carries its
    pid, so the first one with a record's pid is the top of that
    handle's stack. *)
module Handles (H : sig
  type t

  val pid : t -> int
end) : sig
  type table

  val create : int -> table

  val push : table -> int -> H.t -> unit
  (** [push tbl key h] opens [h] under [key]. *)

  val top : table -> int -> pid:int -> H.t option
  (** The newest handle open under [key] with [pid]. *)

  val pop : table -> int -> pid:int -> H.t option
  (** {!top}, and closes it. *)

  val open_under : table -> int -> H.t list
  (** Every handle open under [key], newest first. *)
end
