(* Tests for the observability layer: JSON round-trips, metric
   semantics, histogram quantiles on known distributions, tracer ring
   bounding, and an end-to-end consistency check of the instrumentation
   against the simulator's own accounting. *)

module Json = Dfs_obs.Json
module Metrics = Dfs_obs.Metrics
module Tracer = Dfs_obs.Tracer

(* -- Json ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("null", Json.Null);
        ("yes", Json.Bool true);
        ("n", Json.Int (-42));
        ("x", Json.Float 3.25);
        ("s", Json.String "line\nbreak \"quoted\" \\slash\t");
        ("l", Json.List [ Json.Int 1; Json.Float 0.5; Json.String "" ]);
        ("o", Json.Obj [ ("inner", Json.List []) ]);
      ]
  in
  let s = Json.to_string v in
  (match Json.parse s with
  | Ok v' -> Alcotest.(check bool) "compact round-trip" true (v = v')
  | Error e -> Alcotest.failf "parse error: %s" e);
  match Json.parse (Json.to_pretty_string v) with
  | Ok v' -> Alcotest.(check bool) "pretty round-trip" true (v = v')
  | Error e -> Alcotest.failf "pretty parse error: %s" e

let test_json_floats_stay_floats () =
  (* A float that prints without a fractional part must still read back
     as a float, or schema-typed consumers break. *)
  match Json.parse (Json.to_string (Json.Float 4.0)) with
  | Ok (Json.Float f) -> Alcotest.(check (float 1e-9)) "value" 4.0 f
  | Ok _ -> Alcotest.fail "4.0 did not parse back as a float"
  | Error e -> Alcotest.failf "parse error: %s" e

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ]

let test_json_unicode_escapes () =
  (* BMP escape *)
  (match Json.parse "\"\\u00e9\"" with
  | Ok (Json.String s) -> Alcotest.(check string) "e-acute" "\xc3\xa9" s
  | Ok _ | Error _ -> Alcotest.fail "\\u00e9 did not parse as a string");
  (* surrogate pair: U+1F600 escaped as \ud83d\ude00 must become one
     4-byte UTF-8 character, not two 3-byte surrogate encodings *)
  (match Json.parse "\"\\ud83d\\ude00\"" with
  | Ok (Json.String s) ->
    Alcotest.(check string) "U+1F600" "\xf0\x9f\x98\x80" s
  | Ok _ | Error _ -> Alcotest.fail "surrogate pair did not parse");
  (* a lone high surrogate stays a 3-byte sequence rather than erroring *)
  match Json.parse "\"\\ud83d!\"" with
  | Ok (Json.String s) ->
    Alcotest.(check string) "lone surrogate" "\xed\xa0\xbd!" s
  | Ok _ | Error _ -> Alcotest.fail "lone surrogate did not parse"

let test_json_depth_limit () =
  let nest n = String.make n '[' ^ String.make n ']' in
  (match Json.parse (nest 100) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "100-deep array rejected: %s" e);
  (* past the documented bound the parser fails cleanly instead of
     overflowing the stack *)
  match Json.parse (nest (Json.max_depth + 10)) with
  | Ok _ -> Alcotest.failf "accepted %d-deep nesting" (Json.max_depth + 10)
  | Error _ -> ()

let test_json_duplicate_keys () =
  match Json.parse {|{"a":1,"a":2,"b":3}|} with
  | Ok v ->
    Alcotest.(check (option int))
      "member returns the first binding" (Some 1)
      (Option.bind (Json.member "a" v) Json.to_int_opt);
    Alcotest.(check (option int))
      "later keys still reachable" (Some 3)
      (Option.bind (Json.member "b" v) Json.to_int_opt)
  | Error e -> Alcotest.failf "duplicate keys rejected: %s" e

(* -- Metrics --------------------------------------------------------------- *)

let test_counter_semantics () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r "test.counter" in
  Alcotest.(check int) "starts at zero" 0 (Metrics.value c);
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "incr + add" 42 (Metrics.value c);
  (* registration is idempotent: same name, same cell *)
  let c' = Metrics.counter ~registry:r "test.counter" in
  Metrics.incr c';
  Alcotest.(check int) "same cell" 43 (Metrics.value c);
  Metrics.reset ~registry:r ();
  Alcotest.(check int) "reset" 0 (Metrics.value c);
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument
       "Dfs_obs.Metrics: \"test.counter\" already registered as a non-gauge")
    (fun () -> ignore (Metrics.gauge ~registry:r "test.counter"))

let test_gauge_semantics () =
  let r = Metrics.create () in
  let g = Metrics.gauge ~registry:r "test.gauge" in
  Alcotest.(check (float 0.0)) "starts at zero" 0.0 (Metrics.gauge_value g);
  Metrics.set g 2.5;
  Metrics.set g (-1.0);
  Alcotest.(check (float 0.0)) "last set wins" (-1.0) (Metrics.gauge_value g)

let check_close ~tol msg expected actual =
  if Float.abs (actual -. expected) > tol *. Float.abs expected then
    Alcotest.failf "%s: expected ~%g (+-%g%%), got %g" msg expected
      (tol *. 100.0) actual

let test_histogram_uniform_quantiles () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~registry:r "test.uniform" in
  for i = 1 to 10_000 do
    Metrics.observe h (float_of_int i)
  done;
  Alcotest.(check int) "count" 10_000 (Metrics.hist_count h);
  Alcotest.(check (float 1e-6)) "min" 1.0 (Metrics.hist_min h);
  Alcotest.(check (float 1e-6)) "max" 10_000.0 (Metrics.hist_max h);
  check_close ~tol:1e-9 "sum" (10_001.0 *. 5000.0) (Metrics.hist_sum h);
  (* log-scale buckets are ~12% wide; allow 15% *)
  check_close ~tol:0.15 "p50" 5000.0 (Metrics.quantile h 0.50);
  check_close ~tol:0.15 "p90" 9000.0 (Metrics.quantile h 0.90);
  check_close ~tol:0.15 "p99" 9900.0 (Metrics.quantile h 0.99)

let test_histogram_exponential_quantiles () =
  (* Exponential with mean 1: quantile p = -ln(1-p). *)
  let r = Metrics.create () in
  let h = Metrics.histogram ~registry:r "test.exp" in
  let rng = Dfs_util.Rng.create 23 in
  for _ = 1 to 50_000 do
    Metrics.observe h (Dfs_util.Rng.exponential rng 1.0)
  done;
  check_close ~tol:0.15 "p50" (Float.log 2.0) (Metrics.quantile h 0.50);
  check_close ~tol:0.15 "p90" (-.Float.log 0.1) (Metrics.quantile h 0.90);
  check_close ~tol:0.20 "p99" (-.Float.log 0.01) (Metrics.quantile h 0.99)

let test_histogram_constant_and_zero () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~registry:r "test.const" in
  Alcotest.(check (float 0.0)) "empty quantile" 0.0 (Metrics.quantile h 0.5);
  for _ = 1 to 100 do
    Metrics.observe h 0.025
  done;
  check_close ~tol:0.15 "constant p50" 0.025 (Metrics.quantile h 0.5);
  check_close ~tol:0.15 "constant p99" 0.025 (Metrics.quantile h 0.99);
  (* zeros sort below every positive observation *)
  let z = Metrics.histogram ~registry:r "test.zeros" in
  for _ = 1 to 90 do
    Metrics.observe z 0.0
  done;
  for _ = 1 to 10 do
    Metrics.observe z 7.0
  done;
  Alcotest.(check (float 0.0)) "p50 of mostly zeros" 0.0
    (Metrics.quantile z 0.50);
  check_close ~tol:0.15 "p99 lands in positive tail" 7.0
    (Metrics.quantile z 0.99)

let test_registry_snapshot () =
  let r = Metrics.create () in
  Metrics.add (Metrics.counter ~registry:r "b.counter") 7;
  Metrics.set (Metrics.gauge ~registry:r "a.gauge") 1.5;
  Metrics.observe (Metrics.histogram ~registry:r "c.hist") 2.0;
  Alcotest.(check (list string))
    "names sorted"
    [ "a.gauge"; "b.counter"; "c.hist" ]
    (Metrics.names ~registry:r ());
  let json = Metrics.to_json ~registry:r () in
  (match Json.parse (Json.to_string json) with
  | Ok v ->
    Alcotest.(check (option int))
      "counter as int" (Some 7)
      (Option.bind (Json.member "b.counter" v) Json.to_int_opt);
    let hist = Option.get (Json.member "c.hist" v) in
    Alcotest.(check (option int))
      "hist count" (Some 1)
      (Option.bind (Json.member "count" hist) Json.to_int_opt)
  | Error e -> Alcotest.failf "snapshot does not parse: %s" e);
  let text = Metrics.render_text ~registry:r () in
  Alcotest.(check int) "text lines" 3
    (List.length
       (List.filter
          (fun l -> String.length l > 0)
          (String.split_on_char '\n' text)))

let test_histogram_p999_and_bulk_quantiles () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~registry:r "test.p999" in
  for i = 1 to 10_000 do
    Metrics.observe h (float_of_int i)
  done;
  (* the bulk accessor agrees with one-at-a-time lookups *)
  let ps = [ 0.5; 0.9; 0.99; 0.999 ] in
  Alcotest.(check (list (float 0.0)))
    "quantiles = map quantile"
    (List.map (Metrics.quantile h) ps)
    (Metrics.quantiles h ps);
  check_close ~tol:0.15 "p999" 9990.0 (Metrics.quantile h 0.999);
  (* p999 is part of every histogram snapshot *)
  let json = Metrics.to_json ~registry:r () in
  let hist = Option.get (Json.member "test.p999" json) in
  match Option.bind (Json.member "p999" hist) Json.to_float_opt with
  | Some v -> check_close ~tol:0.15 "p999 in snapshot" 9990.0 v
  | None -> Alcotest.fail "histogram snapshot lacks p999"

(* The log-scale buckets are 10^(1/20)-1 ~ 12.2% wide and quantiles
   report the bucket midpoint, so any reported quantile is within
   10^(1/40)-1 ~ 5.9% of some sample in the right rank neighborhood.
   Property-test the documented bound against the exact empirical
   quantile on arbitrary positive data. *)
let quantile_error_bound =
  QCheck.Test.make ~name:"histogram quantile within ~6% of exact" ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(5 -- 300) (float_range 1e-6 1e9))
        (float_range 0.01 0.999))
    (fun (samples, p) ->
      let r = Metrics.create () in
      let h = Metrics.histogram ~registry:r "prop.q" in
      List.iter (Metrics.observe h) samples;
      let sorted = List.sort Float.compare samples in
      let n = List.length sorted in
      (* the merged-shard quantile takes the first bucket whose
         cumulative count reaches ceil(p * count) *)
      let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int n))) in
      let exact = List.nth sorted (rank - 1) in
      let got = Metrics.quantile h p in
      let bound = 10.0 ** (1.0 /. 40.0) -. 1.0 +. 1e-9 in
      Float.abs (got -. exact) <= bound *. exact)

(* -- Tracer ---------------------------------------------------------------- *)

let emit_test_span i =
  Tracer.emit ~cat:"test"
    ~name:(Printf.sprintf "s%d" i)
    ~t0:(float_of_int i) ~dur:0.5
    ~attrs:[ ("i", Json.Int i) ]
    ()

(* The instrumented modules all emit to [Tracer.default], so these tests
   drive it directly; [Fun.protect] restores the disabled state. *)
let with_default_tracer ~capacity f =
  Tracer.enable ~capacity ();
  Fun.protect ~finally:Tracer.disable f

let test_tracer_disabled_is_noop () =
  Tracer.disable ();
  emit_test_span 0;
  Alcotest.(check bool) "inactive" false (Tracer.active ());
  Alcotest.(check int) "nothing recorded" 0 (Tracer.length Tracer.default)

let test_tracer_ring_bounding () =
  with_default_tracer ~capacity:8 (fun () ->
      let t = Tracer.default in
      for i = 0 to 19 do
        emit_test_span i
      done;
      Alcotest.(check int) "length bounded" 8 (Tracer.length t);
      Alcotest.(check int) "all adds counted" 20 (Tracer.added t);
      Alcotest.(check int) "dropped = added - length" 12 (Tracer.dropped t);
      Alcotest.(check (list string))
        "oldest dropped first, order kept"
        [ "s12"; "s13"; "s14"; "s15"; "s16"; "s17"; "s18"; "s19" ]
        (List.map (fun (s : Tracer.span) -> s.name) (Tracer.spans t));
      Alcotest.(check int) "count by category" 8 (Tracer.count t ~cat:"test");
      Tracer.clear t;
      Alcotest.(check int) "clear empties" 0 (Tracer.length t))

let test_tracer_jsonl_roundtrip () =
  with_default_tracer ~capacity:16 (fun () ->
      for i = 0 to 9 do
        emit_test_span i
      done;
      let t = Tracer.default in
      let original = Tracer.spans t in
      let lines =
        List.filter
          (fun l -> String.length l > 0)
          (String.split_on_char '\n' (Tracer.to_jsonl_string t))
      in
      Alcotest.(check int) "one line per span" 10 (List.length lines);
      let reread =
        List.map
          (fun line ->
            match Json.parse line with
            | Error e -> Alcotest.failf "bad JSONL line %S: %s" line e
            | Ok v -> (
              match Tracer.span_of_json v with
              | Some s -> s
              | None -> Alcotest.failf "not a span: %s" line))
          lines
      in
      Alcotest.(check bool) "spans survive round-trip" true (original = reread))

let test_tracer_export_counters () =
  with_default_tracer ~capacity:4 (fun () ->
      for i = 0 to 9 do
        emit_test_span i
      done;
      let r = Metrics.create () in
      Tracer.record_export_counters ~registry:r Tracer.default;
      let v name =
        match Metrics.find ~registry:r name with
        | Some (Metrics.Counter c) -> Metrics.value c
        | _ -> Alcotest.failf "%s not recorded" name
      in
      Alcotest.(check int) "obs.trace.added" 10 (v "obs.trace.added");
      Alcotest.(check int) "obs.trace.dropped" 6 (v "obs.trace.dropped"))

(* -- Integration: instrumentation agrees with the simulator ---------------- *)

let counter_value name =
  match Metrics.find name with
  | Some (Metrics.Counter c) -> Metrics.value c
  | Some _ -> Alcotest.failf "%s is not a counter" name
  | None -> Alcotest.failf "%s not registered" name

let test_sim_metrics_consistency () =
  Metrics.reset ();
  with_default_tracer ~capacity:(1 lsl 20) (fun () ->
      let preset =
        Dfs_workload.Presets.scaled (Dfs_workload.Presets.trace 1) ~factor:0.01
      in
      let cluster, _driver = Dfs_workload.Presets.run preset in
      (* cache identity: every lookup is either a hit or a miss *)
      let lookups = counter_value "sim.cache.read_lookups" in
      let hits = counter_value "sim.cache.read_hits" in
      let misses = counter_value "sim.cache.read_misses" in
      Alcotest.(check bool) "cache saw traffic" true (lookups > 0);
      Alcotest.(check int) "hits + misses = lookups" lookups (hits + misses);
      (* the metrics layer and the network's own accounting agree *)
      let total_rpcs =
        Dfs_sim.Network.total_rpcs (Dfs_sim.Cluster.network cluster)
      in
      Alcotest.(check bool) "rpcs happened" true (total_rpcs > 0);
      Alcotest.(check int) "rpc counter matches network" total_rpcs
        (counter_value "sim.net.rpcs");
      (* every RPC produced exactly one span (ring did not overflow) *)
      Alcotest.(check int) "no spans dropped" 0 (Tracer.dropped Tracer.default);
      Alcotest.(check int) "one rpc span per rpc" total_rpcs
        (Tracer.count Tracer.default ~cat:"rpc");
      (* the other instrumented categories showed up too *)
      List.iter
        (fun cat ->
          Alcotest.(check bool)
            (Printf.sprintf "%s spans present" cat)
            true
            (Tracer.count Tracer.default ~cat > 0))
        [ "disk"; "cache" ])

let suite =
  [
    ("json round-trip", `Quick, test_json_roundtrip);
    ("json floats stay floats", `Quick, test_json_floats_stay_floats);
    ("json rejects garbage", `Quick, test_json_rejects_garbage);
    ("json unicode escapes", `Quick, test_json_unicode_escapes);
    ("json depth limit", `Quick, test_json_depth_limit);
    ("json duplicate keys", `Quick, test_json_duplicate_keys);
    ("counter semantics", `Quick, test_counter_semantics);
    ("gauge semantics", `Quick, test_gauge_semantics);
    ("histogram uniform quantiles", `Quick, test_histogram_uniform_quantiles);
    ( "histogram exponential quantiles",
      `Quick,
      test_histogram_exponential_quantiles );
    ("histogram constant and zero", `Quick, test_histogram_constant_and_zero);
    ("registry snapshot", `Quick, test_registry_snapshot);
    ( "histogram p999 and bulk quantiles",
      `Quick,
      test_histogram_p999_and_bulk_quantiles );
    QCheck_alcotest.to_alcotest quantile_error_bound;
    ("tracer disabled is noop", `Quick, test_tracer_disabled_is_noop);
    ("tracer ring bounding", `Quick, test_tracer_ring_bounding);
    ("tracer jsonl round-trip", `Quick, test_tracer_jsonl_roundtrip);
    ("tracer export counters", `Quick, test_tracer_export_counters);
    ("sim metrics consistency", `Slow, test_sim_metrics_consistency);
  ]
