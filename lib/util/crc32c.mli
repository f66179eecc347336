(** CRC-32C (Castagnoli, reflected 0x82F63B78, init/final 0xFFFFFFFF) —
    the checksum stamped on columnar trace-segment extents.

    Checksums are returned as non-negative ints in [\[0, 2^32)], the
    little-endian [u32] the segment header stores.  The implementation
    is slice-by-8 over either [string]s or [int8_unsigned] Bigarrays, so
    mmap'd segment windows can be verified without copying them onto the
    OCaml heap.

    Reference vector: [string "123456789" = 0xE3069283]. *)

type bigstring =
  (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

val string : string -> int
(** CRC-32C of a whole string. *)

val string_sub : string -> pos:int -> len:int -> int
(** CRC-32C of [len] bytes starting at [pos].
    @raise Invalid_argument on an out-of-bounds extent. *)

val bigstring_sub : bigstring -> pos:int -> len:int -> int
(** Same, over a Bigarray byte window (e.g. an mmap'd segment). *)

(** {1 Streaming interface} *)

val init : int
(** Initial running state (all ones). *)

val update_string : int -> string -> pos:int -> len:int -> int
(** Fold more bytes into a running CRC state. *)

val finalize : int -> int
(** Final xor; turns a running state into the checksum value. *)
