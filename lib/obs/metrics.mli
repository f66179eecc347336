(** A metrics registry: named counters, gauges and log-scale histograms.

    The simulator's analogue of the paper's kernel counters (Section 3):
    the simulation models count in their own fields and {!Acc}
    accumulators and publish here once, when a run ends.  Snapshots
    render as JSON for [--metrics-out] (and perfbench's per-layer
    metrics), or as aligned text for the [stats] subcommand.

    Metrics live in a registry; most callers use the process-wide
    default one, which [?registry] selects when omitted.  Registration is idempotent: asking for an existing name
    returns the existing metric (registering the same name as a
    different kind raises [Invalid_argument]).

    The registry is domain-safe: a counter is one atomic, a histogram one
    accumulator under its mutex, so concurrent publishes from
    {!Dfs_util.Pool} tasks and the remaining direct writers (trace I/O
    counters, replay, migration) lose no update.  Gauges are
    last-writer-wins; parallel phases use per-run gauge names.
    Registration and reads may be called from any domain. *)

type counter

type gauge

type histogram

type t
(** A registry. *)

val create : unit -> t

val counter : ?registry:t -> string -> counter

val gauge : ?registry:t -> string -> gauge

val histogram : ?registry:t -> string -> histogram

(** {1 Counters} *)

val incr : counter -> unit

val add : counter -> int -> unit

val value : counter -> int

(** {1 Gauges} *)

val set : gauge -> float -> unit

val gauge_value : gauge -> float

(** {1 Histograms}

    Log-scale buckets (20 per decade over [1e-12, 1e12)); quantiles are
    read from bucket midpoints and are accurate to ~6% relative error.
    Observations [<= 0] are counted in a dedicated zero bucket. *)

(** An unsynchronised histogram, for one writer at a time: a simulation
    partition observes into its own and {!merge}s it into the registry
    when the run ends. *)
module Acc : sig
  type t

  val create : unit -> t

  val observe : t -> float -> unit

  val count : t -> int

  val sum : t -> float
  (** The sum of the observations, added in the order they came. *)
end

val observe : histogram -> float -> unit

val merge : histogram -> Acc.t -> unit
(** Add every observation of an accumulator to the histogram. *)

val quantile : histogram -> float -> float
(** [quantile h p] for [p] in [0, 1]; clamped to the observed range.
    Returns [0.0] on an empty histogram.  Accuracy: a positive
    observation lands in a log bucket [10^(1/20) - 1 ~ 12%] wide and
    quantiles are read from bucket midpoints, so the relative error
    against the exact empirical quantile is bounded by
    [10^(1/40) - 1 ~ 6%]. *)

val quantiles : histogram -> float list -> float list
(** Bulk accessor: all quantiles read under one lock, so they are
    mutually consistent even while other domains observe. *)

val hist_count : histogram -> int

val hist_sum : histogram -> float

val hist_min : histogram -> float

val hist_max : histogram -> float

(** {1 Registry-wide operations} *)

val reset : ?registry:t -> unit -> unit
(** Zero every metric (counters to 0, gauges to 0.0, histograms
    emptied), keeping registrations. *)

val names : ?registry:t -> unit -> string list
(** Registered names, sorted. *)

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

val find : string -> metric option
(** Look a name up in the default registry. *)

val to_json : ?registry:t -> unit -> Json.t
(** Object keyed by metric name: counters as ints, gauges as floats,
    histograms as [{count, sum, mean, min, max, p50, p90, p99, p999}]. *)

val render_text : ?registry:t -> unit -> string
(** Aligned, human-readable snapshot (one line per metric). *)
