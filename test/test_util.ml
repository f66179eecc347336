(* Unit and property tests for Dfs_util. *)

open Dfs_util

let check_float = Alcotest.(check (float 1e-9))

let check_float_eps eps = Alcotest.(check (float eps))

(* -- Rng ------------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xa = List.init 10 (fun _ -> Rng.bits64 a) in
  let xb = List.init 10 (fun _ -> Rng.bits64 b) in
  Alcotest.(check bool) "different streams" false (xa = xb)

let test_rng_split_independent () =
  let a = Rng.create 3 in
  let b = Rng.split a in
  let xa = List.init 10 (fun _ -> Rng.bits64 a) in
  let xb = List.init 10 (fun _ -> Rng.bits64 b) in
  Alcotest.(check bool) "split differs from parent" false (xa = xb)

let test_rng_copy () =
  let a = Rng.create 11 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy replays" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_float_range () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let x = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_rng_int_range () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 17 in
    Alcotest.(check bool) "in [0,17)" true (x >= 0 && x < 17)
  done

let test_rng_exponential_mean () =
  let rng = Rng.create 13 in
  let n = 20000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng 5.0
  done;
  check_float_eps 0.2 "mean ~5" 5.0 (!sum /. float_of_int n)

(* Regression for the Box-Muller draw order: [normal] used to bind its
   two uniform draws with [let u1 = ... and u2 = ...] over the same
   mutable generator, leaving the draw order unspecified.  The fix
   sequences u1 before u2; these exact values pin that order. *)
let test_rng_normal_pinned () =
  let exact = Alcotest.(check (float 0.0)) in
  let r = Rng.create 42 in
  exact "normal #1" 0x1.c3b620ee5015bp-1 (Rng.normal r ~mu:0.0 ~sigma:1.0);
  exact "normal #2" (-0x1.cdab96fe79013p-2) (Rng.normal r ~mu:0.0 ~sigma:1.0);
  exact "normal #3" 0x1.81bf069d25a44p-3 (Rng.normal r ~mu:0.0 ~sigma:1.0);
  exact "normal #4" 0x1.c1b680ea2bc5dp-3 (Rng.normal r ~mu:0.0 ~sigma:1.0);
  let r2 = Rng.create 7 in
  exact "normal scaled" 0x1.8f13f44eb38d6p+3 (Rng.normal r2 ~mu:10.0 ~sigma:2.5)

let test_rng_bernoulli_rate () =
  let rng = Rng.create 17 in
  let n = 20000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  check_float_eps 0.02 "p ~0.3" 0.3 (float_of_int !hits /. float_of_int n)

let test_rng_zipf_bounds () =
  let rng = Rng.create 19 in
  for _ = 1 to 1000 do
    let r = Rng.zipf rng ~n:10 ~s:1.0 in
    Alcotest.(check bool) "rank in [1,10]" true (r >= 1 && r <= 10)
  done

let test_rng_zipf_skew () =
  let rng = Rng.create 23 in
  let counts = Array.make 11 0 in
  for _ = 1 to 10000 do
    let r = Rng.zipf rng ~n:10 ~s:1.2 in
    counts.(r) <- counts.(r) + 1
  done;
  Alcotest.(check bool) "rank 1 most common" true (counts.(1) > counts.(2));
  Alcotest.(check bool) "rank 2 beats rank 9" true (counts.(2) > counts.(9))

let test_rng_pick_weighted () =
  let rng = Rng.create 29 in
  let a = ref 0 and b = ref 0 in
  for _ = 1 to 10000 do
    match Rng.pick_weighted rng [ ("a", 9.0); ("b", 1.0) ] with
    | "a" -> incr a
    | _ -> incr b
  done;
  Alcotest.(check bool) "a dominates" true (!a > 7 * !b)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 31 in
  let arr = Array.init 20 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 Fun.id) sorted

let test_rng_pareto_min () =
  let rng = Rng.create 37 in
  for _ = 1 to 1000 do
    Alcotest.(check bool) ">= x_min" true
      (Rng.pareto rng ~alpha:1.5 ~x_min:100.0 >= 100.0)
  done

(* -- Dist ------------------------------------------------------------------ *)

let test_dist_constant () =
  let rng = Rng.create 1 in
  check_float "constant" 42.0 (Dist.sample (Dist.Constant 42.0) rng)

let test_dist_clamped () =
  let rng = Rng.create 1 in
  for _ = 1 to 500 do
    let x = Dist.sample (Dist.Clamped (Dist.Exponential 10.0, 2.0, 5.0)) rng in
    Alcotest.(check bool) "clamped" true (x >= 2.0 && x <= 5.0)
  done

let test_dist_mixture_members () =
  let rng = Rng.create 2 in
  let d = Dist.Mixture [ (Dist.Constant 1.0, 1.0); (Dist.Constant 2.0, 1.0) ] in
  for _ = 1 to 100 do
    let x = Dist.sample d rng in
    Alcotest.(check bool) "one of the members" true (x = 1.0 || x = 2.0)
  done

let test_dist_mean_analytic () =
  check_float "exp mean" 7.0 (Dist.mean (Dist.Exponential 7.0));
  check_float "uniform mean" 3.0 (Dist.mean (Dist.Uniform (2.0, 4.0)));
  check_float "pareto mean" 3.0 (Dist.mean (Dist.Pareto (1.5, 1.0)));
  Alcotest.(check bool) "pareto alpha<=1 infinite" true
    (Dist.mean (Dist.Pareto (1.0, 1.0)) = infinity)

let test_dist_sample_int_nonneg () =
  let rng = Rng.create 3 in
  for _ = 1 to 500 do
    Alcotest.(check bool) "non-negative" true
      (Dist.sample_int (Dist.Uniform (-5.0, 5.0)) rng >= 0)
  done

(* -- Stats ----------------------------------------------------------------- *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Stats.count s);
  check_float "mean" 2.5 (Stats.mean s);
  check_float "total" 10.0 (Stats.total s);
  check_float "min" 1.0 (Stats.min s);
  check_float "max" 4.0 (Stats.max s);
  (* sample (n-1) convention: m2 = 5.0 over 4 samples *)
  check_float_eps 1e-9 "stddev" (sqrt (5.0 /. 3.0)) (Stats.stddev s)

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.(check int) "count" 0 (Stats.count s);
  check_float "mean 0" 0.0 (Stats.mean s);
  check_float "stddev 0" 0.0 (Stats.stddev s)

let test_stats_add_n () =
  let a = Stats.create () in
  Stats.add_n a 3.0 5;
  Stats.add_n a 7.0 5;
  let b = Stats.create () in
  for _ = 1 to 5 do
    Stats.add b 3.0
  done;
  for _ = 1 to 5 do
    Stats.add b 7.0
  done;
  Alcotest.(check int) "counts equal" (Stats.count b) (Stats.count a);
  check_float_eps 1e-9 "means equal" (Stats.mean b) (Stats.mean a);
  check_float_eps 1e-9 "stddevs equal" (Stats.stddev b) (Stats.stddev a)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () and whole = Stats.create () in
  List.iter
    (fun x ->
      Stats.add whole x;
      if x < 3.0 then Stats.add a x else Stats.add b x)
    [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  let m = Stats.merge a b in
  Alcotest.(check int) "count" (Stats.count whole) (Stats.count m);
  check_float_eps 1e-9 "mean" (Stats.mean whole) (Stats.mean m);
  check_float_eps 1e-9 "stddev" (Stats.stddev whole) (Stats.stddev m);
  check_float "min" 1.0 (Stats.min m);
  check_float "max" 5.0 (Stats.max m)

let test_stats_percentile () =
  let arr = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "median" 3.0 (Stats.percentile arr 0.5);
  check_float "min" 1.0 (Stats.percentile arr 0.0);
  check_float "max" 5.0 (Stats.percentile arr 1.0);
  check_float "interp" 1.5 (Stats.percentile arr 0.125)

let test_stats_ratio () =
  check_float "ratio" 0.5 (Stats.ratio 1.0 2.0);
  check_float "div by zero" 0.0 (Stats.ratio 1.0 0.0)

(* -- Cdf ------------------------------------------------------------------- *)

let test_cdf_unweighted () =
  let c = Cdf.create () in
  List.iter (Cdf.add c) [ 1.0; 2.0; 3.0; 4.0 ];
  check_float "below 0" 0.0 (Cdf.fraction_below c 0.5);
  check_float "below 2" 0.5 (Cdf.fraction_below c 2.0);
  check_float "below all" 1.0 (Cdf.fraction_below c 10.0);
  check_float "median" 2.0 (Cdf.median c)

let test_cdf_weighted () =
  let c = Cdf.create () in
  Cdf.add_weighted c ~weight:1.0 1.0;
  Cdf.add_weighted c ~weight:9.0 10.0;
  check_float "weighted fraction" 0.1 (Cdf.fraction_below c 1.0);
  check_float "q0.05" 1.0 (Cdf.quantile c 0.05);
  check_float "q0.5" 10.0 (Cdf.quantile c 0.5)

let test_cdf_add_after_query () =
  let c = Cdf.create () in
  Cdf.add c 1.0;
  ignore (Cdf.fraction_below c 1.0);
  Cdf.add c 2.0;
  check_float "cache invalidated" 0.5 (Cdf.fraction_below c 1.0)

let test_cdf_series_and_log_xs () =
  let xs = Cdf.log_xs ~lo:1.0 ~hi:1000.0 ~per_decade:1 in
  Alcotest.(check int) "4 points" 4 (Array.length xs);
  let c = Cdf.create () in
  Cdf.add c 5.0;
  let series = Cdf.series c ~xs in
  Alcotest.(check int) "series length" 4 (Array.length series);
  check_float "first point" 0.0 (snd series.(0));
  check_float "last point" 1.0 (snd series.(3))

let test_cdf_empty () =
  let c = Cdf.create () in
  check_float "empty below" 0.0 (Cdf.fraction_below c 1.0);
  Alcotest.(check int) "count" 0 (Cdf.count c)

(* Degenerate or hostile inputs must raise [Invalid_argument] with
   context, never a bare assert backtrace. *)
let test_cdf_invalid_args () =
  let c = Cdf.create () in
  Alcotest.check_raises "empty quantile"
    (Invalid_argument "Cdf.quantile: empty distribution") (fun () ->
      ignore (Cdf.quantile c 0.5));
  Cdf.add c 1.0;
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Cdf.quantile: p = 2 outside [0, 1]") (fun () ->
      ignore (Cdf.quantile c 2.0));
  Alcotest.check_raises "p nan"
    (Invalid_argument "Cdf.quantile: p = nan outside [0, 1]") (fun () ->
      ignore (Cdf.quantile c Float.nan));
  Alcotest.check_raises "bad log_xs"
    (Invalid_argument
       "Cdf.log_xs: need 0 < lo < hi and per_decade > 0 (lo = 0, hi = 10, \
        per_decade = 1)") (fun () ->
      ignore (Cdf.log_xs ~lo:0.0 ~hi:10.0 ~per_decade:1))

(* The figures' x points: every [log_xs] axis and the fixed columns of
   Figures 3 and 4. *)
let figure_xs =
  Array.concat
    [
      Cdf.log_xs ~lo:1024.0 ~hi:10_485_760.0 ~per_decade:2;
      Cdf.log_xs ~lo:100.0 ~hi:10_485_760.0 ~per_decade:4;
      Cdf.log_xs ~lo:0.01 ~hi:100.0 ~per_decade:4;
      Cdf.log_xs ~lo:1.0 ~hi:10_000_000.0 ~per_decade:3;
      [| 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.0; 2.5; 5.0; 10.0; 30.0; 100.0 |];
      [| 1.0; 3.0; 10.0; 30.0; 100.0; 300.0; 1000.0; 3600.0; 21600.0; 86400.0 |];
    ]

(* Parts of (value, weight) samples.  Values collide often (small
   integers, powers of two, figure x points) so ties cross parts; the
   weights of one case are all of one kind the analyses use: 1, whole
   numbers below 2^31, or multiples of 1/8. *)
let gen_cdf_parts =
  let open QCheck.Gen in
  let value =
    oneof
      [
        map float_of_int (int_range 0 40);
        map (fun k -> Float.ldexp 1.0 k) (int_range 0 23);
        oneofa figure_xs;
        float_range 0.0 1e7;
      ]
  in
  let weight kind =
    match kind with
    | 0 -> return 1.0
    | 1 -> map float_of_int (int_range 1 ((1 lsl 31) - 1))
    | _ -> map (fun k -> float_of_int k /. 8.0) (int_range 1 ((1 lsl 31) - 1))
  in
  int_range 0 2 >>= fun kind ->
  list_size (int_range 0 6)
    (list_size (int_range 0 60) (pair value (weight kind)))

let cdf_of samples =
  let c = Cdf.create () in
  List.iter (fun (v, weight) -> Cdf.add_weighted c ~weight v) samples;
  c

let prop_cdf_pooled_equals_one =
  QCheck.Test.make ~name:"cdf pooled = one cdf fed every sample" ~count:300
    (QCheck.make gen_cdf_parts)
    (fun parts ->
      let pooled = List.map cdf_of parts in
      let whole = cdf_of (List.concat parts) in
      let same_at x =
        Float.equal
          (Cdf.fraction_below_pooled pooled x)
          (Cdf.fraction_below whole x)
      in
      List.for_all (fun (v, _) -> same_at v) (List.concat parts)
      && Array.for_all same_at figure_xs)

(* Two domains query one never-queried CDF at once: each may build and
   publish the sorted view, and both must get the sequential answers. *)
let test_cdf_concurrent_first_query () =
  let rng = Rng.create 11 in
  let samples =
    List.init 200_000 (fun _ ->
        (Float.round (1000.0 *. Rng.float rng), float_of_int (1 + Rng.int rng 8)))
  in
  let answers c =
    ( Array.map (Cdf.fraction_below c) figure_xs,
      List.map (Cdf.quantile c) [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ] )
  in
  let expected = answers (cdf_of samples) in
  let shared = cdf_of samples in
  let go = Atomic.make false in
  let query () =
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    answers shared
  in
  let d1 = Domain.spawn query and d2 = Domain.spawn query in
  Atomic.set go true;
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  Alcotest.(check bool) "first domain" true (r1 = expected);
  Alcotest.(check bool) "second domain" true (r2 = expected)

let test_cdf_pooled_then_add () =
  let a = cdf_of [ (1.0, 1.0); (3.0, 1.0) ] and b = cdf_of [ (2.0, 2.0) ] in
  check_float "pooled below 2" 0.75 (Cdf.fraction_below_pooled [ a; b ] 2.0);
  Cdf.add_weighted a ~weight:4.0 0.5;
  check_float "after adding to a part" 0.875
    (Cdf.fraction_below_pooled [ a; b ] 2.0);
  check_float "other part unchanged" 1.0 (Cdf.fraction_below b 2.0);
  check_float "no parts" 0.0 (Cdf.fraction_below_pooled [] 2.0);
  Alcotest.(check bool) "equal by samples" true
    (Cdf.equal (cdf_of [ (1.0, 1.0) ]) (cdf_of [ (1.0, 1.0) ]));
  Alcotest.(check bool) "insertion order matters" false
    (Cdf.equal (cdf_of [ (1.0, 1.0); (2.0, 1.0) ]) (cdf_of [ (2.0, 1.0); (1.0, 1.0) ]))

let test_stats_percentile_invalid_args () =
  Alcotest.check_raises "empty sample"
    (Invalid_argument "Stats.percentile: empty sample") (fun () ->
      ignore (Stats.percentile [||] 0.5));
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Stats.percentile: p = -1 outside [0, 1]") (fun () ->
      ignore (Stats.percentile [| 1.0 |] (-1.0)))

let test_units_invalid_args () =
  Alcotest.check_raises "negative bytes"
    (Invalid_argument "Units.blocks_of_bytes: negative byte count -1")
    (fun () -> ignore (Units.blocks_of_bytes (-1)))

(* -- Heap ------------------------------------------------------------------ *)

module IH = Heap.Make (struct
  include Int

  let dummy = min_int
end)

let test_heap_order () =
  let h = IH.create () in
  List.iter (IH.push h) [ 5; 1; 4; 2; 3 ];
  Alcotest.(check (list int)) "sorted drain" [ 1; 2; 3; 4; 5 ]
    (IH.to_sorted_list h)

let test_heap_peek_pop () =
  let h = IH.create () in
  Alcotest.(check (option int)) "peek empty" None (IH.peek h);
  Alcotest.(check (option int)) "pop empty" None (IH.pop h);
  IH.push h 9;
  IH.push h 3;
  Alcotest.(check (option int)) "peek" (Some 3) (IH.peek h);
  Alcotest.(check int) "length" 2 (IH.length h);
  Alcotest.(check (option int)) "pop" (Some 3) (IH.pop h);
  Alcotest.(check (option int)) "pop next" (Some 9) (IH.pop h);
  Alcotest.(check bool) "empty" true (IH.is_empty h)

let test_heap_pop_exn () =
  let h = IH.create () in
  Alcotest.check_raises "empty pop_exn"
    (Invalid_argument "Heap.pop_exn: empty heap") (fun () ->
      ignore (IH.pop_exn h))

let test_heap_duplicates () =
  let h = IH.create () in
  List.iter (IH.push h) [ 2; 2; 1; 1 ];
  Alcotest.(check (list int)) "dups kept" [ 1; 1; 2; 2 ] (IH.to_sorted_list h)

let test_heap_filter_in_place () =
  let h = IH.create () in
  List.iter (IH.push h) [ 9; 4; 7; 1; 8; 2; 6; 3; 5; 0 ];
  IH.filter_in_place h (fun x -> x mod 2 = 0);
  Alcotest.(check int) "evens kept" 5 (IH.length h);
  Alcotest.(check (list int)) "heap order survives" [ 0; 2; 4; 6; 8 ]
    (IH.to_sorted_list h);
  IH.filter_in_place h (fun _ -> false);
  Alcotest.(check bool) "filter-all empties" true (IH.is_empty h)

(* Regression for the retention bug: [pop] and [filter_in_place] used to
   leave the removed elements in the backing array past [size], pinning
   them (and everything they referenced) until overwritten.  With the
   vacated slots cleared to [dummy], a popped element must become
   collectable as soon as the caller drops it. *)
module SH = Heap.Make (struct
  type t = string

  let compare = String.compare

  let dummy = ""
end)

(* fresh heap-allocated strings (literals would be static data) *)
let mk_elt i = String.init 8 (fun j -> Char.chr (65 + ((i + j) mod 26)))

let test_heap_pop_releases () =
  let h = SH.create () in
  let n = 5 in
  let w = Weak.create n in
  for i = 0 to n - 1 do
    SH.push h (mk_elt i)
  done;
  (* drain completely, keeping only weak refs to the popped elements *)
  for i = 0 to n - 1 do
    Weak.set w i (SH.pop h)
  done;
  Gc.full_major ();
  Gc.full_major ();
  for i = 0 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "popped element %d is collectable" i)
      true
      (Weak.get w i = None)
  done;
  (* read the heap after the weak checks so its backing array is live
     during the GC above — the retention under test *)
  Alcotest.(check bool) "drained" true (SH.is_empty h)

let test_heap_filter_releases () =
  let h = SH.create () in
  let n = 8 in
  let w = Weak.create n in
  for i = 0 to n - 1 do
    SH.push h (mk_elt i)
  done;
  (* drop everything, keeping only weak refs *)
  SH.filter_in_place h (fun s ->
      let slot = (Char.code s.[0] - 65) mod n in
      Weak.set w slot (Some s);
      false);
  Gc.full_major ();
  Gc.full_major ();
  for i = 0 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "filtered element %d is collectable" i)
      true
      (Weak.get w i = None)
  done;
  (* keep the heap's backing array live across the GC (see above) *)
  Alcotest.(check bool) "filter-all empties" true (SH.is_empty h)

(* -- Table / Units ----------------------------------------------------------- *)

let test_table_render () =
  let t =
    Table.create ~caption:"Cap" ~columns:[ ("A", Table.Left); ("B", Table.Right) ] ()
  in
  Table.add_row t [ "x"; "1" ];
  Table.add_row t [ "yy"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "caption present" true
    (String.length s > 3 && String.sub s 0 3 = "Cap");
  Alcotest.(check bool) "contains row" true
    (String.split_on_char '\n' s |> List.exists (fun l -> l = "yy | 22"))

let test_table_wrong_arity () =
  let t = Table.create ~columns:[ ("A", Table.Left) ] () in
  Alcotest.check_raises "arity"
    (Invalid_argument "Table.add_row: wrong number of cells") (fun () ->
      Table.add_row t [ "x"; "y" ])

let test_table_formatters () =
  Alcotest.(check string) "pct_sd" "41.4 (26.9)" (Table.pct_sd 41.4 26.9);
  Alcotest.(check string) "pct_range" "88 (82-94)" (Table.pct_range 88.0 82.0 94.0);
  Alcotest.(check string) "bytes" "4.0 KB" (Table.bytes 4096.0)

let test_units () =
  Alcotest.(check int) "block" 4096 Units.block_size;
  Alcotest.(check int) "blocks of 0" 0 (Units.blocks_of_bytes 0);
  Alcotest.(check int) "blocks of 1" 1 (Units.blocks_of_bytes 1);
  Alcotest.(check int) "blocks of 4096" 1 (Units.blocks_of_bytes 4096);
  Alcotest.(check int) "blocks of 4097" 2 (Units.blocks_of_bytes 4097);
  check_float "minutes" 120.0 (Units.minutes 2.0);
  check_float "hours" 7200.0 (Units.hours 2.0)

(* -- Chart ----------------------------------------------------------------- *)

let test_chart_renders () =
  let cdf = Cdf.create () in
  List.iter (Cdf.add cdf) [ 100.0; 1000.0; 10000.0; 100000.0 ];
  let xs = Cdf.log_xs ~lo:100.0 ~hi:100000.0 ~per_decade:2 in
  let s =
    Chart.render ~title:"t" ~x_label:"bytes"
      [ Chart.of_cdf ~name:"files" ~glyph:'*' ~xs [ cdf ] ]
  in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 't');
  Alcotest.(check bool) "has glyph" true (String.contains s '*');
  Alcotest.(check bool) "has axes" true (String.contains s '+');
  (* every line fits a reasonable width *)
  List.iter
    (fun line ->
      Alcotest.(check bool) "line width bounded" true (String.length line < 120))
    (String.split_on_char '\n' s)

let test_chart_of_cdf_percent () =
  let cdf = Cdf.create () in
  Cdf.add cdf 10.0;
  let s = Chart.of_cdf ~name:"x" ~glyph:'o' ~xs:[| 5.0; 20.0 |] [ cdf ] in
  Alcotest.(check (float 1e-9)) "0% below 5" 0.0 (snd s.Chart.s_points.(0));
  Alcotest.(check (float 1e-9)) "100% below 20" 100.0 (snd s.Chart.s_points.(1))

let test_chart_two_series () =
  let a = Cdf.create () and b = Cdf.create () in
  Cdf.add a 10.0;
  Cdf.add b 1000.0;
  let xs = [| 1.0; 10.0; 100.0; 1000.0 |] in
  let s =
    Chart.render ~title:"two" ~x_label:"x"
      [ Chart.of_cdf ~name:"a" ~glyph:'*' ~xs [ a ];
        Chart.of_cdf ~name:"b" ~glyph:'o' ~xs [ b ] ]
  in
  Alcotest.(check bool) "both glyphs" true
    (String.contains s '*' && String.contains s 'o')

let test_chart_no_positive_x () =
  Alcotest.check_raises "empty chart"
    (Invalid_argument "Chart.render: no positive x values") (fun () ->
      ignore (Chart.render ~title:"t" ~x_label:"x"
                [ { Chart.s_name = "e"; s_glyph = '*'; s_points = [||] } ]))

(* -- properties --------------------------------------------------------------- *)

let prop_stats_mean_bounds =
  QCheck.Test.make ~name:"stats mean within min..max" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      Stats.mean s >= Stats.min s -. 1e-9 && Stats.mean s <= Stats.max s +. 1e-9)

let prop_stats_merge_equals_sequential =
  QCheck.Test.make ~name:"stats merge = sequential" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 30) (float_range (-100.) 100.))
        (list_of_size Gen.(0 -- 30) (float_range (-100.) 100.)))
    (fun (xs, ys) ->
      let a = Stats.create () and b = Stats.create () and w = Stats.create () in
      List.iter (Stats.add a) xs;
      List.iter (Stats.add b) ys;
      List.iter (Stats.add w) (xs @ ys);
      let m = Stats.merge a b in
      Stats.count m = Stats.count w
      && Float.abs (Stats.mean m -. Stats.mean w) < 1e-6
      && Float.abs (Stats.stddev m -. Stats.stddev w) < 1e-6)

let prop_cdf_monotone =
  QCheck.Test.make ~name:"cdf is monotone" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_range 0.0 1000.0))
    (fun xs ->
      let c = Cdf.create () in
      List.iter (Cdf.add c) xs;
      let points = [ 0.0; 1.0; 10.0; 100.0; 500.0; 1000.0; 2000.0 ] in
      let fracs = List.map (Cdf.fraction_below c) points in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-12 && mono rest
        | _ -> true
      in
      mono fracs)

let prop_cdf_quantile_consistent =
  QCheck.Test.make ~name:"fraction_below (quantile p) >= p" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 50) (float_range 0.0 100.0))
        (float_range 0.01 0.99))
    (fun (xs, p) ->
      let c = Cdf.create () in
      List.iter (Cdf.add c) xs;
      Cdf.fraction_below c (Cdf.quantile c p) >= p -. 1e-9)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains sorted" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let h = IH.create () in
      List.iter (IH.push h) xs;
      IH.to_sorted_list h = List.sort compare xs)

let prop_dist_clamp_respected =
  QCheck.Test.make ~name:"clamped samples stay in range" ~count:200
    QCheck.(pair (float_range 0.1 10.0) (float_range 11.0 100.0))
    (fun (lo, hi) ->
      let rng = Rng.create 99 in
      let d = Dist.Clamped (Dist.Pareto (1.1, 0.5), lo, hi) in
      List.for_all
        (fun _ ->
          let x = Dist.sample d rng in
          x >= lo && x <= hi)
        (List.init 50 Fun.id))

(* -- crc32c ----------------------------------------------------------------- *)

let test_crc32c_vectors () =
  (* Reference vectors for CRC-32C (Castagnoli): RFC 3720 appendix and
     the classic check value. *)
  Alcotest.(check int) "empty" 0 (Crc32c.string "");
  Alcotest.(check int) "123456789" 0xE3069283 (Crc32c.string "123456789");
  Alcotest.(check int) "32 zero bytes" 0x8A9136AA
    (Crc32c.string (String.make 32 '\x00'));
  Alcotest.(check int) "32 0xFF bytes" 0x62A8AB43
    (Crc32c.string (String.make 32 '\xff'))

let test_crc32c_streaming_matches_oneshot () =
  let s = String.init 257 (fun i -> Char.chr ((i * 61 + 7) land 0xFF)) in
  Alcotest.(check int) "sub of whole" (Crc32c.string s)
    (Crc32c.string_sub s ~pos:0 ~len:(String.length s));
  (* Fold in uneven pieces; slice-by-8 must not care about alignment. *)
  let st = ref Crc32c.init in
  let pos = ref 0 in
  List.iter
    (fun len ->
      st := Crc32c.update_string !st s ~pos:!pos ~len;
      pos := !pos + len)
    [ 1; 3; 8; 13; 64; 100; 68 ];
  Alcotest.(check int) "all bytes folded" (String.length s) !pos;
  Alcotest.(check int) "streaming = one-shot" (Crc32c.string s)
    (Crc32c.finalize !st);
  let big = Bigarray.Array1.create Bigarray.int8_unsigned Bigarray.c_layout
      (String.length s)
  in
  String.iteri (fun i c -> big.{i} <- Char.code c) s;
  Alcotest.(check int) "bigstring agrees with string" (Crc32c.string s)
    (Crc32c.bigstring_sub big ~pos:0 ~len:(String.length s));
  Alcotest.(check int) "bigstring window agrees"
    (Crc32c.string_sub s ~pos:9 ~len:100)
    (Crc32c.bigstring_sub big ~pos:9 ~len:100)

let prop_crc32c_split_invariance =
  QCheck.Test.make ~name:"crc32c split-anywhere invariance" ~count:200
    QCheck.(pair (string_of_size Gen.(0 -- 200)) (int_bound 200))
    (fun (s, cut0) ->
      let cut = min cut0 (String.length s) in
      let st = Crc32c.update_string Crc32c.init s ~pos:0 ~len:cut in
      let st =
        Crc32c.update_string st s ~pos:cut ~len:(String.length s - cut)
      in
      Crc32c.finalize st = Crc32c.string s)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_crc32c_split_invariance;
      prop_stats_mean_bounds;
      prop_stats_merge_equals_sequential;
      prop_cdf_monotone;
      prop_cdf_quantile_consistent;
      prop_cdf_pooled_equals_one;
      prop_heap_sorts;
      prop_dist_clamp_respected;
    ]

let suite =
  [
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng seeds differ", `Quick, test_rng_seeds_differ);
    ("rng split independent", `Quick, test_rng_split_independent);
    ("rng copy", `Quick, test_rng_copy);
    ("rng float range", `Quick, test_rng_float_range);
    ("rng int range", `Quick, test_rng_int_range);
    ("rng exponential mean", `Quick, test_rng_exponential_mean);
    ("rng normal pinned draw order", `Quick, test_rng_normal_pinned);
    ("rng bernoulli rate", `Quick, test_rng_bernoulli_rate);
    ("rng zipf bounds", `Quick, test_rng_zipf_bounds);
    ("rng zipf skew", `Quick, test_rng_zipf_skew);
    ("rng pick weighted", `Quick, test_rng_pick_weighted);
    ("rng shuffle permutation", `Quick, test_rng_shuffle_permutation);
    ("rng pareto min", `Quick, test_rng_pareto_min);
    ("dist constant", `Quick, test_dist_constant);
    ("dist clamped", `Quick, test_dist_clamped);
    ("dist mixture members", `Quick, test_dist_mixture_members);
    ("dist analytic means", `Quick, test_dist_mean_analytic);
    ("dist sample_int non-negative", `Quick, test_dist_sample_int_nonneg);
    ("stats basic", `Quick, test_stats_basic);
    ("stats empty", `Quick, test_stats_empty);
    ("stats add_n", `Quick, test_stats_add_n);
    ("stats merge", `Quick, test_stats_merge);
    ("stats percentile", `Quick, test_stats_percentile);
    ("stats ratio", `Quick, test_stats_ratio);
    ("cdf unweighted", `Quick, test_cdf_unweighted);
    ("cdf weighted", `Quick, test_cdf_weighted);
    ("cdf add after query", `Quick, test_cdf_add_after_query);
    ("cdf series and log_xs", `Quick, test_cdf_series_and_log_xs);
    ("cdf empty", `Quick, test_cdf_empty);
    ("cdf invalid args", `Quick, test_cdf_invalid_args);
    ("cdf concurrent first query", `Quick, test_cdf_concurrent_first_query);
    ("cdf pooled then add", `Quick, test_cdf_pooled_then_add);
    ("stats percentile invalid args", `Quick, test_stats_percentile_invalid_args);
    ("units invalid args", `Quick, test_units_invalid_args);
    ("heap order", `Quick, test_heap_order);
    ("heap peek/pop", `Quick, test_heap_peek_pop);
    ("heap pop_exn", `Quick, test_heap_pop_exn);
    ("heap duplicates", `Quick, test_heap_duplicates);
    ("heap filter_in_place", `Quick, test_heap_filter_in_place);
    ("heap pop releases element", `Quick, test_heap_pop_releases);
    ("heap filter releases elements", `Quick, test_heap_filter_releases);
    ("table render", `Quick, test_table_render);
    ("table wrong arity", `Quick, test_table_wrong_arity);
    ("table formatters", `Quick, test_table_formatters);
    ("units", `Quick, test_units);
    ("chart renders", `Quick, test_chart_renders);
    ("chart of_cdf percent", `Quick, test_chart_of_cdf_percent);
    ("chart two series", `Quick, test_chart_two_series);
    ("chart no positive x", `Quick, test_chart_no_positive_x);
    ("crc32c vectors", `Quick, test_crc32c_vectors);
    ("crc32c streaming", `Quick, test_crc32c_streaming_matches_oneshot);
  ]
  @ qcheck_tests
