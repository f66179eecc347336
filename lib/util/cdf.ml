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

type t = {
  mutable values : float array;
  mutable weights : float array;
  mutable count : int;
  mutable total_weight : float;
  view : view option Atomic.t;  (* cleared by [add] *)
}

let create () =
  {
    values = [||];
    weights = [||];
    count = 0;
    total_weight = 0.0;
    view = Atomic.make None;
  }

let add t ?(weight = 1.0) v =
  let n = t.count in
  if n = Array.length t.values then begin
    let grow a =
      let b = Array.make (max 16 (2 * n)) 0.0 in
      Array.blit a 0 b 0 n;
      b
    in
    t.values <- grow t.values;
    t.weights <- grow t.weights
  end;
  t.values.(n) <- v;
  t.weights.(n) <- weight;
  t.count <- n + 1;
  t.total_weight <- t.total_weight +. weight;
  if Option.is_some (Atomic.get t.view) then Atomic.set t.view None

let count t = t.count

let total_weight t = t.total_weight

let equal a b =
  a.count = b.count
  && Float.equal a.total_weight b.total_weight
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

(* The parts' sorted views, concatenated, are consecutive sorted runs:
   merging them yields the pooled order without sorting again.  The
   result's samples are that merged order. *)
let merge parts =
  let views = List.map ensure_view parts in
  let n =
    List.fold_left (fun acc v -> acc + Array.length v.sorted_values) 0 views
  in
  let v = Array.make n 0.0 and w = Array.make n 0.0 in
  let starts, _ =
    List.fold_left
      (fun (starts, pos) part ->
        let len = Array.length part.sorted_values in
        Array.blit part.sorted_values 0 v pos len;
        Array.blit part.sorted_weights 0 w pos len;
        if len = 0 then (starts, pos) else (pos :: starts, pos + len))
      ([], 0) views
  in
  let values, weights =
    merge_all v w (Array.of_list (List.rev (n :: starts)))
  in
  {
    values;
    weights;
    count = n;
    total_weight = List.fold_left (fun acc p -> acc +. p.total_weight) 0.0 parts;
    view = Atomic.make (Some (view_of (values, weights)));
  }

let fraction_below t x =
  if t.total_weight = 0.0 then 0.0
  else begin
    let v = ensure_view t in
    (* binary search for the last index with value <= x *)
    let lo = ref 0 and hi = ref (Array.length v.sorted_values) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if v.sorted_values.(mid) <= x then lo := mid + 1 else hi := mid
    done;
    if !lo = 0 then 0.0 else v.prefix.(!lo - 1) /. t.total_weight
  end

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
  let target = p *. t.total_weight in
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
