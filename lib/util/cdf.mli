(** Weighted empirical cumulative distributions, answered at declared
    points.

    Figures 1-4 of the paper are CDFs, most of them in two weightings
    (e.g. "by number of runs" and "by bytes transferred"), and every
    number this program prints from one is its value at a fixed point:
    a table's x, a chart's x, or a claim's threshold.  So a {!t} is
    created on a sorted array of those points and keeps only the weight
    of its samples between each point and the next, plus the weight
    above the last; no sample is kept and nothing is sorted.  It
    answers {!fraction_below} at a declared point only.

    {b Exactness.}  A query sums the weights of the bins up to its
    point, and each bin sums its samples in insertion order.  That is
    the exact weight of the samples [<= x] whenever every partial sum of
    the weights is exact: every weight a multiple of a common power of
    two (1, a byte count, a run length, [size /. 8.]) and the total
    below 2{^53} of those units.  Under that condition the result is
    bit-identical to the prefix weight of the sorted samples, whatever
    the order of addition, and a pooled query ({!fraction_below_pooled})
    is bit-identical to the query on one CDF fed every part's samples.
    The analyses' weights are multiples of 1/8 and their totals stay far
    below 2{^50}, so no printed digit depends on how a figure bins or
    pools its traces. *)

type t

val create : float array -> t
(** [create points] is an empty CDF that answers at [points].
    @raise Invalid_argument unless [points] are finite and strictly
    ascending (so without duplicates; [-0.] and [0.] are equal). *)

val union : float array list -> float array
(** The points of several sets, ascending and without duplicates: the
    [points] of a CDF whose table, chart and claims read at different
    points. *)

val add : t -> float -> unit
(** [add t v] records sample [v] with weight 1. *)

val add_weighted : t -> weight:float -> float -> unit
(** [add_weighted t ~weight v] adds [weight] to the bin of the first
    point [>= v] (or to the bin above the last point; a NaN sample lands
    there too) and to the running total.  It allocates nothing. *)

val count : t -> int
(** Number of samples added. *)

val equal : t -> t -> bool
(** Same points, count, total weight and bin weights (compared with
    [Float.equal]). *)

val fraction_below : t -> float -> float
(** [fraction_below t x] is the weighted fraction of samples [<= x]; 0
    when empty.
    @raise Invalid_argument naming [x] unless [x] is one of [t]'s
    points. *)

val fraction_below_pooled : t list -> float -> float
(** [fraction_below_pooled parts x] is {!fraction_below} of the parts
    pooled into one distribution, without building it: the parts'
    weights of samples [<= x], summed in part order, over the sum of
    their total weights (0 when that is 0).  Under the exactness
    condition above it equals [fraction_below] of one CDF fed every
    part's samples.
    @raise Invalid_argument unless [x] is a point of every part. *)

val log_xs : lo:float -> hi:float -> per_decade:int -> float array
(** Logarithmically spaced evaluation points, for byte- and
    second-scaled axes.
    @raise Invalid_argument unless [0 < lo < hi] and [per_decade > 0]. *)
