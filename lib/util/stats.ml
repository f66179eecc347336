type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
  mutable total : float;
}

let create () =
  { n = 0; mean = 0.0; m2 = 0.0; min = nan; max = nan; total = 0.0 }

let add t x =
  t.n <- t.n + 1;
  t.total <- t.total +. x;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if t.n = 1 then begin
    t.min <- x;
    t.max <- x
  end
  else begin
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x
  end

let add_n t x k =
  if k > 0 then begin
    (* Merging a degenerate accumulator holding x with multiplicity k. *)
    let n_a = float_of_int t.n and n_b = float_of_int k in
    let n = n_a +. n_b in
    let delta = x -. t.mean in
    let mean = if t.n = 0 then x else t.mean +. (delta *. n_b /. n) in
    let m2 = t.m2 +. (delta *. delta *. n_a *. n_b /. n) in
    t.n <- t.n + k;
    t.total <- t.total +. (x *. n_b);
    t.mean <- mean;
    t.m2 <- m2;
    if Float.is_nan t.min || x < t.min then t.min <- x;
    if Float.is_nan t.max || x > t.max then t.max <- x
  end

let count t = t.n

let total t = t.total

let mean t = if t.n = 0 then 0.0 else t.mean

(* Sample (Bessel-corrected, n-1) standard deviation: the paper's tables
   report statistics of observed traces as estimates, not population
   parameters.  [m2] itself is convention-free (sum of squared deviations),
   so [add]/[add_n]/[merge] need no change. *)
let stddev t = if t.n < 2 then 0.0 else sqrt (t.m2 /. float_of_int (t.n - 1))

let min t = t.min

let max t = t.max

let merge a b =
  if a.n = 0 then { b with n = b.n }
  else if b.n = 0 then { a with n = a.n }
  else begin
    let n_a = float_of_int a.n and n_b = float_of_int b.n in
    let n = n_a +. n_b in
    let delta = b.mean -. a.mean in
    {
      n = a.n + b.n;
      mean = a.mean +. (delta *. n_b /. n);
      m2 = a.m2 +. b.m2 +. (delta *. delta *. n_a *. n_b /. n);
      min = Float.min a.min b.min;
      max = Float.max a.max b.max;
      total = a.total +. b.total;
    }
  end

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: empty sample";
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg
      (Printf.sprintf "Stats.percentile: p = %g outside [0, 1]" p);
  if n = 1 then sorted.(0)
  else begin
    let idx = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor idx) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = idx -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let ratio a b = if b = 0.0 then 0.0 else a /. b
