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
    may come out of the sort in any order.  That order reaches a result
    only through the cumulative weights, so results are independent of
    it whenever every partial sum of the weights is exact: every weight
    a multiple of a common power of two (1, a byte count, a run length,
    [size /. 8.]) and the total below 2{^53} of those units.  The same
    condition makes a pooled CDF exact: {!fraction_below_pooled} of
    several parts sums their prefix weights, and that sum is
    bit-identical to the prefix weight of one CDF fed every part's
    samples.  The analyses' weights are multiples of 1/8 and their
    totals stay far below 2{^50}, so no printed digit depends on how a
    figure pools its traces. *)

type t

val create : unit -> t
(** Fresh, empty accumulator. *)

val add : t -> float -> unit
(** [add t v] records sample [v] with weight 1. *)

val add_weighted : t -> weight:float -> float -> unit
(** [add_weighted t ~weight v] records sample [v] with [weight].  No
    option is built for the weight, and the running total is kept in a
    flat float record, so an add allocates nothing of its own except
    when the sample arrays double. *)

val count : t -> int
(** Number of samples added. *)

val equal : t -> t -> bool
(** Same count, same total weight, and the same samples in insertion
    order (compared with [Float.equal]).  Structural [=] is not
    meaningful on {!t}: spare capacity and the cached sorted view are
    not part of its value. *)

val fraction_below : t -> float -> float
(** [fraction_below t x] is the weighted fraction of samples [<= x];
    0 when empty. *)

val fraction_below_pooled : t list -> float -> float
(** [fraction_below_pooled parts x] is {!fraction_below} of the parts
    pooled into one distribution, without building it: the parts' weights
    of samples [<= x], summed in part order, over the sum of their total
    weights (0 when that is 0).  Each part is sorted at most once, on its
    first query.  Under the exactness condition above it equals
    [fraction_below] of one CDF fed every part's samples. *)

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
