(* A reference CDF for test_util.ml: a list of (value, weight) samples
   in insertion order, answered at any x from a plain stable sort, as
   Dfs_util.Cdf answered before it binned its weights at declared
   points.  Prefix weights add up in sorted order, the total in
   insertion order. *)

let sorted samples = List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) samples

let total samples = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 samples

let fraction_below samples x =
  let below =
    List.fold_left (fun acc (v, w) -> if v <= x then acc +. w else acc) 0.0 (sorted samples)
  in
  let total = total samples in
  if total = 0.0 then 0.0 else below /. total

(* The smallest sample value [v] with [fraction_below v >= p]. *)
let quantile samples p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "Cdf_model.quantile: p = %g outside [0, 1]" p);
  let target = p *. total samples in
  let rec first acc = function
    | [] -> invalid_arg "Cdf_model.quantile: empty distribution"
    | [ (v, _) ] -> v
    | (v, w) :: rest -> if acc +. w >= target then v else first (acc +. w) rest
  in
  first 0.0 (sorted samples)

let median samples = quantile samples 0.5

let series samples ~xs = Array.map (fun x -> (x, fraction_below samples x)) xs
