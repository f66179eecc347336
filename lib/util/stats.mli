(** Running (streaming) statistics and small numeric helpers.

    The paper reports most measurements as "average (standard deviation)"
    with optional min/max over traces; {!t} accumulates exactly that
    without storing samples. *)

type t
(** Mutable accumulator (Welford's algorithm). *)

val create : unit -> t

val add : t -> float -> unit

val add_n : t -> float -> int -> unit
(** [add_n t x k] adds [x] [k] times (O(k) is avoided). *)

val count : t -> int

val total : t -> float
(** Sum of all samples. *)

val mean : t -> float
(** 0 when empty. *)

val stddev : t -> float
(** Sample standard deviation (Bessel-corrected, [m2 / (n-1)]); 0 when
    fewer than 2 samples.  The sample convention matches the paper's
    tables, which report statistics of observed traces as estimates.
    [merge] and [add_n] accumulate the convention-free sum of squared
    deviations, so they combine consistently with this definition. *)

val min : t -> float
(** [nan] when empty. *)

val max : t -> float
(** [nan] when empty. *)

val merge : t -> t -> t
(** Combine two accumulators (parallel Welford merge). *)

val percentile : float array -> float -> float
(** [percentile sorted p] with [p] in [\[0,1\]], linear interpolation.
    The array must be sorted ascending and non-empty. *)

val ratio : float -> float -> float
(** [ratio a b] is [a /. b], or 0 when [b = 0]. *)
