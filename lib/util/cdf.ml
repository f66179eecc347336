(* The weights of the samples binned at the declared points: bin [i]
   holds the samples in (points.(i - 1), points.(i)], and the last bin
   those above every point (and NaN, which no point is [>=]).  No
   sample is kept. *)

(* The running total of the weights, in insertion order.  A record of
   one float field is stored flat, so adding to it allocates nothing. *)
type total = { mutable sum : float }

type t = {
  points : float array;  (* finite, strictly ascending *)
  bins : float array;  (* one per point, then the overflow bin *)
  mutable count : int;
  total : total;
}

let create points =
  Array.iteri
    (fun i x ->
      if not (Float.is_finite x) then
        invalid_arg (Printf.sprintf "Cdf.create: point %d is %g, not finite" i x);
      if i > 0 && not (points.(i - 1) < x) then
        invalid_arg
          (Printf.sprintf
             "Cdf.create: points must be strictly ascending (%.17g then %.17g)"
             points.(i - 1) x))
    points;
  {
    points = Array.copy points;
    bins = Array.make (Array.length points + 1) 0.0;
    count = 0;
    total = { sum = 0.0 };
  }

let union sets =
  Array.of_list (List.sort_uniq Float.compare (List.concat_map Array.to_list sets))

(* The index of the first point [>= v], or of the overflow bin. *)
let bin t v =
  let lo = ref 0 and hi = ref (Array.length t.points) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if v <= Array.unsafe_get t.points mid then hi := mid else lo := mid + 1
  done;
  !lo

let add_weighted t ~weight v =
  let i = bin t v in
  t.bins.(i) <- t.bins.(i) +. weight;
  t.count <- t.count + 1;
  t.total.sum <- t.total.sum +. weight

let add t v = add_weighted t ~weight:1.0 v

let count t = t.count

let same a b = Array.length a = Array.length b && Array.for_all2 Float.equal a b

let equal a b =
  same a.points b.points && a.count = b.count
  && Float.equal a.total.sum b.total.sum
  && same a.bins b.bins

(* The weight of the samples [<= x], summed over the bins up to [x]'s. *)
let weight_below t x =
  let k = bin t x in
  if k = Array.length t.points || t.points.(k) <> x then
    invalid_arg (Printf.sprintf "Cdf.fraction_below: %.17g is not a declared point" x);
  let sum = ref 0.0 in
  for i = 0 to k do
    sum := !sum +. t.bins.(i)
  done;
  !sum

let fraction_below t x =
  let below = weight_below t x in
  if t.total.sum = 0.0 then 0.0 else below /. t.total.sum

(* Both sums run in part order; under the exactness condition (see the
   interface) each is the exact sum, whatever the order. *)
let fraction_below_pooled parts x =
  let below = List.fold_left (fun acc p -> acc +. weight_below p x) 0.0 parts in
  let total = List.fold_left (fun acc p -> acc +. p.total.sum) 0.0 parts in
  if total = 0.0 then 0.0 else below /. total

let log_xs ~lo ~hi ~per_decade =
  if not (lo > 0.0 && hi > lo && per_decade > 0) then
    invalid_arg
      (Printf.sprintf
         "Cdf.log_xs: need 0 < lo < hi and per_decade > 0 (lo = %g, hi = %g, \
          per_decade = %d)"
         lo hi per_decade);
  let step = 10.0 ** (1.0 /. float_of_int per_decade) in
  let rec go acc x =
    if x > hi *. 1.0001 then List.rev acc else go (x :: acc) (x *. step)
  in
  Array.of_list (go [] lo)
