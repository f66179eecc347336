(** Weighted empirical cumulative distributions.

    Figures 1-4 of the paper are CDFs, most of them in two weightings
    (e.g. "by number of runs" and "by bytes transferred").  A {!t} is
    built by adding [(value, weight)] samples; evaluation and quantiles
    interpolate over the sorted sample set.

    Samples are kept unboxed, in two parallel float arrays.  The sorted
    view a query needs is built on the first query after an {!add}, into
    fresh arrays published atomically, so one CDF may be queried from
    several domains at once.

    {b Exactness.}  Values are ordered by [Float.compare]; equal values
    may come out of a sort or a {!merge} in any order.  That order
    reaches a result only through the cumulative weights, so results
    are independent of it whenever every partial sum of the weights is
    exact: every weight a multiple of a common power of two (1, a byte
    count, a run length, [size /. 8.]) and the total below 2{^53} of
    those units.  Then {!fraction_below} and {!quantile} of a {!merge}
    are bit-identical to those of one CDF fed every sample. *)

type t

val create : unit -> t
(** Fresh, empty accumulator. *)

val add : t -> ?weight:float -> float -> unit
(** [add t ~weight v] records sample [v]; [weight] defaults to 1. *)

val count : t -> int
(** Number of samples added. *)

val total_weight : t -> float

val merge : t list -> t
(** [merge parts] pools the parts' samples into a new CDF by merging
    their sorted views (each part is sorted at most once, and only if it
    has not been queried yet) — no pooled re-sort.  Under the exactness
    condition above its answers equal those of one CDF fed every part's
    samples; its total weight is the sum of the parts' totals.  The parts
    are not modified. *)

val equal : t -> t -> bool
(** Same count, same total weight, and the same samples in insertion
    order (compared with [Float.equal]).  Structural [=] is not
    meaningful on {!t}: spare capacity and the cached sorted view are
    not part of its value. *)

val fraction_below : t -> float -> float
(** [fraction_below t x] is the weighted fraction of samples [<= x];
    0 when empty. *)

val quantile : t -> float -> float
(** [quantile t p] is the smallest sample value [v] with
    [fraction_below t v >= p].
    @raise Invalid_argument (with context, never a bare assert) on an
    empty CDF or [p] outside [[0, 1]] — degenerate imported data must
    produce a diagnosable error, not a backtrace. *)

val median : t -> float

val series : t -> xs:float array -> (float * float) array
(** [series t ~xs] evaluates the CDF at each of [xs], returning
    [(x, fraction_below x)] pairs — the printable form of a figure. *)

val log_xs : lo:float -> hi:float -> per_decade:int -> float array
(** Logarithmically spaced evaluation points, for byte- and
    second-scaled axes.
    @raise Invalid_argument unless [0 < lo < hi] and [per_decade > 0]. *)
