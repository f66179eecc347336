(* Samples are two parallel float arrays in insertion order, grown by
   doubling; only the first [count] slots are live.  Queries read a
   sorted view built into fresh arrays on first use and published with
   one atomic write, so CDFs shared across domains (the per-run fused
   memo) may be queried concurrently: a racing domain at worst sorts
   the same samples again and publishes an equal view. *)

type view = {
  sorted_values : float array;  (* ascending by [Float.compare] *)
  sorted_weights : float array;
  prefix : float array;  (* cumulative weights over the sorted order *)
}

(* The running total of the weights, in insertion order.  A record of
   one float field is stored flat, so adding to it allocates nothing. *)
type total = { mutable sum : float }

type t = {
  mutable values : float array;
  mutable weights : float array;
  mutable count : int;
  total : total;
  view : view option Atomic.t;  (* cleared by [add] *)
}

let create () =
  {
    values = [||];
    weights = [||];
    count = 0;
    total = { sum = 0.0 };
    view = Atomic.make None;
  }

let grow t =
  let n = t.count in
  let grow a =
    let b = Array.make (max 16 (2 * n)) 0.0 in
    Array.blit a 0 b 0 n;
    b
  in
  t.values <- grow t.values;
  t.weights <- grow t.weights

let add_weighted t ~weight v =
  if t.count = Array.length t.values then grow t;
  let n = t.count in
  Array.unsafe_set t.values n v;
  Array.unsafe_set t.weights n weight;
  t.count <- n + 1;
  t.total.sum <- t.total.sum +. weight;
  if Option.is_some (Atomic.get t.view) then Atomic.set t.view None

let add t v = add_weighted t ~weight:1.0 v

let count t = t.count

let equal a b =
  a.count = b.count
  && Float.equal a.total.sum b.total.sum
  &&
  let rec same i =
    i >= a.count
    || Float.equal a.values.(i) b.values.(i)
       && Float.equal a.weights.(i) b.weights.(i)
       && same (i + 1)
  in
  same 0

(* -- sorting without a closure ------------------------------------------- *)

(* Merge the sorted runs [lo, mid) and [mid, hi) of (sv, sw) into
   (dv, dw), taking the left run first on ties: stable. *)
let merge_runs sv sw dv dw lo mid hi =
  let i = ref lo and j = ref mid in
  for k = lo to hi - 1 do
    if !j >= hi || (!i < mid && Float.compare sv.(!i) sv.(!j) <= 0) then begin
      dv.(k) <- sv.(!i);
      dw.(k) <- sw.(!i);
      incr i
    end
    else begin
      dv.(k) <- sv.(!j);
      dw.(k) <- sw.(!j);
      incr j
    end
  done

(* Bottom-up merge of consecutive sorted runs, ping-ponging between two
   buffer pairs.  [bounds] holds each run's start, ascending, then the
   total length; returns the pair holding the one sorted run. *)
let merge_all v w bounds =
  let n = Array.length v in
  let src = ref (v, w) and dst = ref (Array.make n 0.0, Array.make n 0.0) in
  let bounds = ref bounds in
  while Array.length !bounds > 2 do
    let (sv, sw), (dv, dw), b = (!src, !dst, !bounds) in
    let runs = Array.length b - 1 in
    let next = Array.make (((runs + 1) / 2) + 1) n in
    for r = 0 to (runs / 2) - 1 do
      merge_runs sv sw dv dw b.(2 * r) b.((2 * r) + 1) b.((2 * r) + 2);
      next.(r) <- b.(2 * r)
    done;
    if runs land 1 = 1 then begin
      let lo = b.(runs - 1) in
      Array.blit sv lo dv lo (n - lo);
      Array.blit sw lo dw lo (n - lo);
      next.(runs / 2) <- lo
    end;
    bounds := next;
    src := (dv, dw);
    dst := (sv, sw)
  done;
  !src

let insertion_run = 8

(* A stable sort of the live samples into fresh arrays: insertion sort
   on short runs, then run merging. *)
let sort_samples t =
  let n = t.count in
  let v = Array.sub t.values 0 n and w = Array.sub t.weights 0 n in
  let runs = (n + insertion_run - 1) / insertion_run in
  for r = 0 to runs - 1 do
    let lo = r * insertion_run in
    for k = lo + 1 to min n (lo + insertion_run) - 1 do
      let x = v.(k) and xw = w.(k) in
      let j = ref (k - 1) in
      while !j >= lo && Float.compare v.(!j) x > 0 do
        v.(!j + 1) <- v.(!j);
        w.(!j + 1) <- w.(!j);
        decr j
      done;
      v.(!j + 1) <- x;
      w.(!j + 1) <- xw
    done
  done;
  merge_all v w
    (Array.init (runs + 1) (fun r -> if r = runs then n else r * insertion_run))

let view_of (sorted_values, sorted_weights) =
  let n = Array.length sorted_values in
  let prefix = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. sorted_weights.(i);
    prefix.(i) <- !acc
  done;
  { sorted_values; sorted_weights; prefix }

let ensure_view t =
  match Atomic.get t.view with
  | Some v -> v
  | None ->
    let v = view_of (sort_samples t) in
    Atomic.set t.view (Some v);
    v

(* The cumulative weight of the samples [<= x]: a binary search for the
   last sorted index with value [<= x]. *)
let weight_below t x =
  let v = ensure_view t in
  let lo = ref 0 and hi = ref (Array.length v.sorted_values) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if v.sorted_values.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  if !lo = 0 then 0.0 else v.prefix.(!lo - 1)

let fraction_below t x =
  if t.total.sum = 0.0 then 0.0 else weight_below t x /. t.total.sum

(* Both sums run in part order; under the exactness condition (see the
   interface) each is the exact sum, whatever the order. *)
let fraction_below_pooled parts x =
  let total = List.fold_left (fun acc p -> acc +. p.total.sum) 0.0 parts in
  if total = 0.0 then 0.0
  else List.fold_left (fun acc p -> acc +. weight_below p x) 0.0 parts /. total

(* Guards raise [Invalid_argument] with context instead of bare
   [assert]: on degenerate or hostile imported data an assert is a
   backtrace crash (or silent garbage under [-noassert]). *)
let quantile t p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg
      (Printf.sprintf "Cdf.quantile: p = %g outside [0, 1]" p);
  let v = ensure_view t in
  let n = Array.length v.sorted_values in
  if n = 0 then invalid_arg "Cdf.quantile: empty distribution";
  let target = p *. t.total.sum in
  (* first index whose cumulative weight reaches the target *)
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if v.prefix.(mid) >= target then hi := mid else lo := mid + 1
  done;
  v.sorted_values.(!lo)

let median t = quantile t 0.5

let series t ~xs = Array.map (fun x -> (x, fraction_below t x)) xs

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
