(* Tests for the observability layer: JSON round-trips, metric
   semantics, histogram quantiles on known distributions, the sim-time
   span streams' bound, and an end-to-end consistency check of the
   instrumentation against the simulator's own accounting. *)

module Json = Json_oracle
module Metrics = Dfs_obs.Metrics
module Profiler = Dfs_obs.Profiler

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

(* The printer's fast paths agree with plain printf: [%d] for ints, and
   [%.12g] with ".0" appended to an int-looking token for floats. *)
let json_numbers_match_printf =
  let float_gen =
    QCheck.Gen.(
      oneof
        [
          float;
          map float_of_int (int_range (-1_000_000) 1_000_000);
          map2 (fun m e -> m *. (10.0 ** float_of_int e)) float (int_range (-20) 20);
          oneofl [ 0.0; -0.0; 1e12; -1e12; 999999999999.0; 1e11 +. 0.5; 0.1; 5e-324 ];
        ])
  in
  QCheck.Test.make ~name:"json numbers print as printf would" ~count:2000
    QCheck.(pair (make ~print:string_of_float float_gen) int)
    (fun (f, i) ->
      let expected =
        if Float.is_nan f then "null"
        else if f = Float.infinity then "1e308"
        else if f = Float.neg_infinity then "-1e308"
        else
          let g = Printf.sprintf "%.12g" f in
          if String.contains g '.' || String.contains g 'e' then g else g ^ ".0"
      in
      Json.to_string (Json.Float f) = expected
      && Json.to_string (Json.Int i) = string_of_int i)

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

(* -- Sim-time spans ------------------------------------------------------------ *)

(* The instrumented modules emit to whatever stream is installed on the
   calling domain, so these tests install their own; [Fun.protect]
   restores the disabled state. *)
let with_sim_recording f =
  Profiler.enable_sim ();
  Fun.protect ~finally:Profiler.disable_sim f

(* [n] spans named s0, s1, ... into a fresh stream labelled [label]. *)
let record_spans label n =
  let s = Option.get (Profiler.stream ~label ~now:(fun () -> 0.0)) in
  Profiler.recording s (fun () ->
      for i = 0 to n - 1 do
        if Profiler.admit () then
          Profiler.emit ~cat:"test" ~name:(Printf.sprintf "s%d" i) ~t0:(float_of_int i)
            ~dur:0.5 [ ("i", Json.Int i) ]
      done)

let kept label =
  List.concat_map
    (fun (l, spans) -> if l = label then List.of_seq spans else [])
    (Profiler.simulations ())

let test_tracer_disabled_is_noop () =
  Profiler.disable_sim ();
  Alcotest.(check bool) "no stream while off" true
    (Profiler.stream ~label:"off" ~now:(fun () -> 0.0) = None);
  Alcotest.(check bool) "nothing installed, nothing admitted" false (Profiler.admit ());
  with_sim_recording (fun () ->
      let s = Option.get (Profiler.stream ~label:"paused" ~now:(fun () -> 0.0)) in
      Profiler.disable_sim ();
      Profiler.recording s (fun () ->
          Alcotest.(check bool) "admit off while disabled" false (Profiler.admit ()));
      Alcotest.(check int) "nothing offered" 0 (Profiler.added Sim))

let test_tracer_keeps_first_spans () =
  Profiler.enable ();
  (* enabling again on the way out clears the wall span recorded here *)
  Fun.protect ~finally:(fun () -> Profiler.enable (); Profiler.disable ()) @@ fun () ->
  with_sim_recording (fun () ->
      let n = Profiler.sim_capacity in
      Profiler.span "wall" (fun () -> record_spans "big" (n + 5));
      record_spans "small" 3;
      let big = kept "big" in
      Alcotest.(check int) "first N kept" n (List.length big);
      Alcotest.(check (list string)) "oldest kept, order kept"
        [ "s0"; "s1"; Printf.sprintf "s%d" (n - 1) ]
        (List.map
           (fun (s : Profiler.span) -> s.name)
           [ List.hd big; List.nth big 1; List.nth big (n - 1) ]);
      Alcotest.(check bool) "sim clock, attrs kept" true
        (List.for_all
           (fun (s : Profiler.span) ->
             s.clock = Sim && s.args = [ ("i", Json.Int (int_of_float s.t0)) ])
           big);
      Alcotest.(check int) "another simulation keeps its own" 3
        (List.length (kept "small"));
      Alcotest.(check int) "all offers counted" (n + 8) (Profiler.added Sim);
      Alcotest.(check int) "only the overflow dropped" 5 (Profiler.dropped Sim);
      Alcotest.(check (list string)) "the wall span, kept beside them" [ "wall" ]
        (List.map (fun (s : Profiler.span) -> s.name) (Profiler.spans ()));
      Alcotest.(check int) "no wall span dropped" 0 (Profiler.dropped Wall))

let counter_value name =
  match Metrics.find name with
  | Some (Metrics.Counter c) -> Metrics.value c
  | Some _ -> Alcotest.failf "%s is not a counter" name
  | None -> Alcotest.failf "%s not registered" name

let hist_count name =
  match Metrics.find name with
  | Some (Metrics.Histogram h) -> Metrics.hist_count h
  | Some _ -> Alcotest.failf "%s is not a histogram" name
  | None -> Alcotest.failf "%s not registered" name

let test_tracer_export_counters () =
  let added0 = counter_value "obs.trace.added"
  and dropped0 = counter_value "obs.trace.dropped" in
  with_sim_recording (fun () ->
      (* a stream nobody publishes never reaches the registry *)
      record_spans "unpublished" 10;
      Alcotest.(check int) "counted only at publish" added0
        (counter_value "obs.trace.added");
      (* a simulation big enough to overflow its stream publishes when its
         run ends *)
      let preset =
        Dfs_workload.Presets.scaled (Dfs_workload.Presets.trace 1) ~factor:0.02
      in
      ignore (Dfs_workload.Presets.run preset);
      let offered = Profiler.added Sim - 10 and dropped = Profiler.dropped Sim in
      Alcotest.(check bool) "the stream overflowed" true (dropped > 0);
      Alcotest.(check int) "obs.trace.added" offered
        (counter_value "obs.trace.added" - added0);
      Alcotest.(check int) "obs.trace.dropped" dropped
        (counter_value "obs.trace.dropped" - dropped0);
      Alcotest.(check int) "added = kept + dropped" offered
        (List.length (kept "cluster") + dropped))

(* -- Integration: instrumentation agrees with the simulator ---------------- *)

(* Every counter a cluster publishes, summed from its models' own state
   the way an analysis would read it. *)
let model_totals cluster =
  let module C = Dfs_sim.Cluster in
  let module Bc = Dfs_cache.Block_cache in
  let module S = Dfs_sim.Server in
  let sum f a = Array.fold_left (fun acc x -> acc + f x) 0 a in
  let servers f = sum f (C.servers cluster) in
  let caches f =
    sum (fun c -> f (Bc.stats (Dfs_sim.Client.cache c))) (C.clients cluster)
    + servers (fun s -> f (Bc.stats (S.cache s)))
  in
  let counts l = List.fold_left (fun acc (_, s) -> acc + Dfs_util.Stats.count s) 0 l in
  let disk f = servers (fun s -> f (S.disk s)) in
  let cons f = servers (fun s -> f (S.consistency s)) in
  let net = C.network cluster in
  let inj = Option.get (C.faults cluster) in
  let st = Dfs_fault.Injector.stats inj in
  [
    ("sim.net.rpcs", Dfs_sim.Network.total_rpcs net);
    ("sim.net.bytes", Dfs_sim.Network.total_bytes net);
    ("sim.disk.reads", disk Dfs_sim.Disk.reads);
    ("sim.disk.writes", disk Dfs_sim.Disk.writes);
    ("sim.disk.bytes_read", disk Dfs_sim.Disk.bytes_read);
    ("sim.disk.bytes_written", disk Dfs_sim.Disk.bytes_written);
    ("sim.cache.read_lookups", caches (fun s -> s.all.read_ops));
    ("sim.cache.read_hits", caches (fun s -> s.all.read_hits));
    ("sim.cache.read_misses", caches (fun s -> s.all.read_misses));
    ("sim.cache.fetch_bytes", caches (fun s -> s.all.bytes_fetched));
    ("sim.cache.write_blocks", caches (fun s -> s.all.write_ops));
    ("sim.cache.write_fetches", caches (fun s -> s.all.write_fetches));
    ("sim.cache.writebacks", caches (fun s -> counts s.cleanings));
    ("sim.cache.writeback_bytes", caches (fun s -> s.writeback_bytes));
    ("sim.cache.evictions", caches (fun s -> counts s.replacements));
    ("sim.server.opens", cons (fun c -> c.file_opens));
    ("sim.server.sharing_opens", cons (fun c -> c.sharing_opens));
    ("sim.server.recalls", cons (fun c -> c.recalls));
    ("sim.server.cache_disables", cons (fun c -> c.cache_disables));
    ("sim.engine.events", Dfs_sim.Engine.events_executed (C.engine cluster));
    ("sim.fault.crashes", Dfs_fault.Injector.crashes inj);
    ("sim.fault.reboots", st.reboots);
    ("sim.fault.lost_bytes", Dfs_fault.Injector.lost_bytes inj);
    ("sim.fault.partitions", st.partitions);
    ("sim.fault.rpc_retries", st.rpc_retries);
    ("sim.fault.rpc_drops", st.rpc_drops);
    ("sim.fault.backoff_capped", st.backoff_capped);
    ("sim.fault.disk_errors", st.disk_errors);
    ("sim.fault.recovery_rpcs", st.recovery_rpcs);
    ("sim.fault.offline_queued_bytes", st.offline_queued_bytes);
    ("sim.fault.replayed_writeback_bytes", st.replayed_bytes);
    ( "sim.fault.bytes_at_risk",
      sum (fun c -> Bc.dirty_bytes (Dfs_sim.Client.cache c)) (C.clients cluster)
      + servers (fun s -> Bc.dirty_bytes (S.cache s)) );
  ]

(* Histograms whose count is a published counter. *)
let counted_histograms =
  [
    ("sim.net.rpc_latency_s", [ "sim.net.rpcs" ]);
    ("sim.disk.service_s", [ "sim.disk.reads"; "sim.disk.writes" ]);
    ("sim.cache.dirty_age_s", [ "sim.cache.writebacks" ]);
    ("sim.client.op_latency_s", [ "sim.client.ops" ]);
    ("sim.fault.outage_s", [ "sim.fault.crashes" ]);
    ("sim.fault.lost_bytes_per_crash", [ "sim.fault.crashes" ]);
  ]

let check_published ~expect =
  List.iter
    (fun (name, v) -> Alcotest.(check int) name v (counter_value name))
    expect;
  List.iter
    (fun (h, counters) ->
      Alcotest.(check int) (h ^ " count")
        (List.fold_left (fun acc c -> acc + counter_value c) 0 counters)
        (hist_count h))
    counted_histograms

let test_sim_metrics_consistency () =
  Metrics.reset ();
  with_sim_recording (fun () ->
      let preset =
        Dfs_workload.Presets.with_faults
          (Dfs_workload.Presets.scaled (Dfs_workload.Presets.trace 1) ~factor:0.01)
          Dfs_fault.Profile.crash_heavy
      in
      let cluster, _driver = Dfs_workload.Presets.run preset in
      let first = model_totals cluster in
      (* every published counter is its model's total *)
      check_published ~expect:first;
      List.iter
        (fun name ->
          Alcotest.(check bool) (name ^ " nonzero") true (List.assoc name first > 0))
        [ "sim.net.rpcs"; "sim.cache.writebacks"; "sim.fault.crashes";
          "sim.fault.rpc_retries"; "sim.fault.disk_errors"; "sim.fault.bytes_at_risk" ];
      (* cache identity: every lookup is either a hit or a miss *)
      Alcotest.(check int) "hits + misses = lookups"
        (counter_value "sim.cache.read_lookups")
        (counter_value "sim.cache.read_hits" + counter_value "sim.cache.read_misses");
      Alcotest.(check int) "offered spans published" (Profiler.added Sim)
        (counter_value "obs.trace.added");
      (* every RPC produced exactly one span, none lost to the bound *)
      Alcotest.(check int) "no spans dropped" 0 (Profiler.dropped Sim);
      let count cat =
        List.length (List.filter (fun (s : Profiler.span) -> s.cat = cat) (kept "cluster"))
      in
      Alcotest.(check int) "one rpc span per rpc" (List.assoc "sim.net.rpcs" first)
        (count "rpc");
      (* the other instrumented categories showed up too *)
      List.iter
        (fun cat ->
          Alcotest.(check bool) (Printf.sprintf "%s spans present" cat) true (count cat > 0))
        [ "disk"; "cache"; "fault" ];
      (* a second simulation adds its totals to the registry's *)
      let cluster2, _ = Dfs_workload.Presets.run preset in
      check_published
        ~expect:
          (List.map2
             (fun (name, a) (_, b) -> (name, a + b))
             first (model_totals cluster2)))

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
    QCheck_alcotest.to_alcotest json_numbers_match_printf;
    ("tracer disabled is noop", `Quick, test_tracer_disabled_is_noop);
    ("tracer per-simulation span cap", `Quick, test_tracer_keeps_first_spans);
    ("tracer export counters", `Quick, test_tracer_export_counters);
    ("sim metrics consistency", `Slow, test_sim_metrics_consistency);
  ]
