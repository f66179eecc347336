type t =
  | Constant of float
  | Uniform of float * float
  | Exponential of float
  | Lognormal of float * float
  | Pareto of float * float
  | Mixture of (t * float) list
  | Clamped of t * float * float

let rec sample d rng =
  match d with
  | Constant c -> c
  | Uniform (lo, hi) -> Rng.uniform rng lo hi
  | Exponential mean -> Rng.exponential rng mean
  | Lognormal (mu, sigma) -> Rng.lognormal rng ~mu ~sigma
  | Pareto (alpha, x_min) -> Rng.pareto rng ~alpha ~x_min
  | Mixture choices ->
    let pick = Rng.pick_weighted rng choices in
    sample pick rng
  | Clamped (d, lo, hi) -> Float.min hi (Float.max lo (sample d rng))

let sample_int d rng =
  let x = sample d rng in
  if x <= 0.0 then 0 else int_of_float (Float.round x)

let rec mean = function
  | Constant c -> c
  | Uniform (lo, hi) -> (lo +. hi) /. 2.0
  | Exponential m -> m
  | Lognormal (mu, sigma) -> exp (mu +. (sigma *. sigma /. 2.0))
  | Pareto (alpha, x_min) ->
    if alpha <= 1.0 then infinity else alpha *. x_min /. (alpha -. 1.0)
  | Mixture choices ->
    let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 choices in
    List.fold_left (fun acc (d, w) -> acc +. (w /. total *. mean d)) 0.0 choices
  | Clamped (d, _, _) -> mean d
