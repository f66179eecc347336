(** A miniature per-client block cache used by the modified-Sprite and
    token simulations: block residency and dirtiness only (the real
    caches are assumed infinitely large, as in the paper's simulator),
    with a 30-second delayed-write clock. *)

type t

val create : unit -> t

val mem : t -> client:int -> index:int -> bool

val insert_clean : t -> client:int -> index:int -> unit

val insert_dirty : t -> client:int -> index:int -> bytes:int -> now:float -> unit
(** [bytes] is the portion of the block this write dirtied; accumulated
    (and capped at the block size) for writeback accounting. *)

val invalidate_client : t -> client:int -> unit
(** Drop all of one client's blocks (dirty data is assumed to have been
    flushed by the caller first). *)

val flush_dirty :
  t -> client:int -> ?older_than:float -> now:float -> unit -> int * int
(** Clean the client's dirty blocks (all of them, or only those dirty for
    at least [older_than] seconds); returns [(blocks, bytes)] cleaned —
    bytes are the accumulated dirty extents, like Sprite's writebacks.
    Cleaned blocks stay resident. *)

val clients : t -> int list
