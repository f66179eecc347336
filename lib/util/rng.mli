(** Deterministic pseudo-random number generation.

    All simulations in this repository draw randomness through this module so
    that every experiment is reproducible from a single integer seed.  The
    generator is splitmix64: fast, well distributed, and splittable, which
    lets each simulated client/user/process own an independent stream. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator. Equal seeds give equal streams. *)

val split : t -> t
(** [split t] derives an independent generator and advances [t]. *)

val split_key : t -> int -> t
(** [split_key t key] derives an independent generator from [t]'s
    {e current} state and [key], without advancing [t]: a pure function
    of (state, key), unlike {!split} whose result depends on how many
    draws preceded it.  Distinct keys give decorrelated streams.  Used
    wherever a stream must be attributable to a stable entity id (e.g.
    a simulation partition) rather than to draw order. *)

val derive_seed : int -> int -> int
(** [derive_seed seed key] is a non-negative integer seed derived purely
    from [(seed, key)] — the seed-level counterpart of {!split_key} for
    APIs that take an [int] seed rather than a generator. *)

val copy : t -> t
(** [copy t] duplicates the current state without advancing [t]. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform float in [\[0, 1)]. *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] is uniform in [\[lo, hi)]. Requires [lo <= hi]. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. Requires [n > 0]. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is true with probability [p]. *)

val exponential : t -> float -> float
(** [exponential t mean] samples Exp with the given mean. Requires [mean > 0]. *)

val normal : t -> mu:float -> sigma:float -> float
(** Gaussian via Box-Muller. *)

val lognormal : t -> mu:float -> sigma:float -> float
(** exp of a normal; [mu]/[sigma] are the parameters of the underlying
    normal (i.e. the mean of [log x]). *)

val pareto : t -> alpha:float -> x_min:float -> float
(** Heavy-tailed Pareto sample, >= [x_min]. Requires [alpha > 0]. *)

val zipf : t -> n:int -> s:float -> int
(** [zipf t ~n ~s] samples a rank in [\[1, n\]] with probability
    proportional to [1 / rank^s], by inversion on a precomputed table-free
    rejection scheme. Requires [n >= 1]. *)

val pick_weighted : t -> ('a * float) list -> 'a
(** Choice proportional to the (non-negative, not all zero) weights. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
