type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* splitmix64 step: advance by the golden gamma and mix. *)
let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  let seed = bits64 t in
  { state = seed }

(* Stateless splitmix64 finalizer, shared by [split_key]. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split_key t key =
  (* Jump to the key-th odd multiple of the gamma so distinct keys land
     on distinct stream positions even before mixing. *)
  let z =
    Int64.add t.state
      (Int64.mul golden_gamma (Int64.of_int ((2 * key) + 1)))
  in
  { state = mix64 z }

let derive_seed seed key =
  let z = split_key { state = Int64.of_int seed } key in
  (* Positive int so the result can feed any [create]-style seed slot. *)
  Int64.to_int (Int64.shift_right_logical (mix64 z.state) 2)

let float t =
  (* 53 random bits scaled to [0,1). *)
  let x = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float x *. (1.0 /. 9007199254740992.0)

let uniform t lo hi =
  assert (lo <= hi);
  lo +. ((hi -. lo) *. float t)

let int t n =
  assert (n > 0);
  (* Rejection-free for our purposes: modulo bias is negligible for n << 2^62. *)
  let x = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  x mod n

let bernoulli t p = float t < p

let exponential t mean =
  assert (mean > 0.);
  let u = float t in
  -.mean *. log (1.0 -. u)

(* Box–Muller.  The two draws MUST be sequenced explicitly: binding them
   with [and] (or building a tuple) leaves the evaluation order of the
   shared mutable generator unspecified, so byte-identical outputs would
   silently depend on the compiler.  [u1] is drawn first, then [u2] —
   the order every supported compiler happened to pick before this was
   pinned down. *)
let normal t ~mu ~sigma =
  let u1 = 1.0 -. float t in
  let u2 = float t in
  let r = sqrt (-2.0 *. log u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let lognormal t ~mu ~sigma = exp (normal t ~mu ~sigma)

let pareto t ~alpha ~x_min =
  assert (alpha > 0.);
  let u = 1.0 -. float t in
  x_min /. (u ** (1.0 /. alpha))

(* Zipf by inversion over the harmonic CDF; O(n) worst case but n is small
   (file-population ranks) and the loop usually exits early because the head
   of the distribution carries most of the mass. *)
let zipf t ~n ~s =
  assert (n >= 1);
  let h = ref 0.0 in
  for k = 1 to n do
    h := !h +. (1.0 /. (Float.of_int k ** s))
  done;
  let u = float t *. !h in
  let acc = ref 0.0 and rank = ref n in
  (try
     for k = 1 to n do
       acc := !acc +. (1.0 /. (Float.of_int k ** s));
       if u <= !acc then begin
         rank := k;
         raise Exit
       end
     done
   with Exit -> ());
  !rank

let pick_weighted t choices =
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 choices in
  assert (total > 0.);
  let u = float t *. total in
  let rec go acc = function
    | [] -> invalid_arg "Rng.pick_weighted: empty"
    | [ (x, _) ] -> x
    | (x, w) :: rest ->
      let acc = acc +. w in
      if u <= acc then x else go acc rest
  in
  go 0.0 choices

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
