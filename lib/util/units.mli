(** Byte and time unit constants and conversions.

    Sizes are [int] bytes; simulated time is [float] seconds since the
    start of the simulation (the paper's traces also use relative time). *)

val mib : int
val block_size : int
(** 4 KBytes — Sprite's cache block size. *)

val blocks_of_bytes : int -> int
(** Number of [block_size] blocks needed to hold the given byte count
    (ceiling division; 0 bytes -> 0 blocks). *)

val minutes : float -> float
(** [minutes x] is [x] minutes in seconds. *)

val hours : float -> float
