(** Composable one-dimensional distributions.

    Workload parameters (file sizes, think times, run lengths, ...) are
    expressed as values of type {!t} so that presets can be described as
    data. *)

type t =
  | Constant of float
  | Uniform of float * float  (** inclusive lower bound, exclusive upper *)
  | Exponential of float  (** mean *)
  | Lognormal of float * float  (** mu, sigma of the underlying normal *)
  | Pareto of float * float  (** alpha, x_min *)
  | Mixture of (t * float) list  (** weighted mixture; weights need not sum to 1 *)
  | Clamped of t * float * float  (** clamp samples into [lo, hi] *)

val sample : t -> Rng.t -> float
(** Draw one sample. *)

val sample_int : t -> Rng.t -> int
(** [sample] rounded to the nearest non-negative integer. *)

val mean : t -> float
(** Analytic mean where it exists; for [Clamped] this is the mean of the
    underlying distribution (an approximation) and for [Pareto] with
    [alpha <= 1] it is [infinity]. *)
