(* Tests for the wall-clock side of the profiler, the Chrome trace export
   and the pool's utilization gauges. *)

module Json = Json_oracle
module Metrics = Dfs_obs.Metrics
module Profiler = Dfs_obs.Profiler
module Chrome = Dfs_obs.Chrome_export

(* The profiler is process-global (the instrumented modules call it
   directly), so every test restores the disabled state on the way out. *)
let with_profiler f =
  Profiler.enable ();
  Fun.protect ~finally:Profiler.disable f

(* -- Profiler --------------------------------------------------------------- *)

let test_disabled_records_nothing () =
  Profiler.disable ();
  let r = Profiler.span "ignored" (fun () -> 42) in
  Alcotest.(check int) "thunk result" 42 r;
  Alcotest.(check bool) "inactive" false (Profiler.active ());
  Alcotest.(check int) "no spans" 0 (List.length (Profiler.spans ()))

let test_span_nesting_and_fields () =
  with_profiler (fun () ->
      let r =
        Profiler.span "outer" (fun () ->
            Profiler.span ~cat:"inner-cat" "inner" (fun () -> 7) + 1)
      in
      Alcotest.(check int) "result flows through" 8 r;
      match
        List.sort
          (fun (a : Profiler.span) b -> compare a.depth b.depth)
          (Profiler.spans ())
      with
      | [ outer; inner ] ->
        Alcotest.(check string) "outer name" "outer" outer.name;
        Alcotest.(check string) "default category" "phase" outer.cat;
        Alcotest.(check int) "outer depth" 0 outer.depth;
        Alcotest.(check string) "inner name" "inner" inner.name;
        Alcotest.(check string) "inner category" "inner-cat" inner.cat;
        Alcotest.(check int) "inner depth" 1 inner.depth;
        Alcotest.(check bool) "outer contains inner" true
          (outer.dur >= inner.dur);
        Alcotest.(check bool) "t0 ordered" true (outer.t0 <= inner.t0);
        Alcotest.(check bool) "wall clock" true (inner.clock = Profiler.Wall);
        Alcotest.(check (list string))
          "gc deltas as args"
          [ "gc_minor"; "gc_major"; "gc_promoted_words"; "gc_minor_words" ]
          (List.map fst inner.args);
        Alcotest.(check bool) "gc deltas non-negative" true
          (List.for_all
             (fun (_, v) -> Option.get (Json.to_float_opt v) >= 0.0)
             inner.args)
      | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans))

let test_span_recorded_on_raise () =
  with_profiler (fun () ->
      (try Profiler.span "boom" (fun () -> failwith "boom") with
      | Failure _ -> ());
      Alcotest.(check int) "span survived the raise" 1
        (List.length (Profiler.spans ()));
      (* nesting depth was restored by the unwinding *)
      Profiler.span "after" (fun () -> ());
      match Profiler.spans () with
      | [ a; b ] ->
        Alcotest.(check int) "both top-level" 0 (a.depth + b.depth)
      | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l))

let test_per_domain_streams () =
  with_profiler (fun () ->
      let pool = Dfs_util.Pool.create ~jobs:4 () in
      let squares =
        Dfs_util.Pool.map pool
          (fun i ->
            Profiler.span "work" (fun () -> Sys.opaque_identity (i * i)))
          [ 1; 2; 3; 4; 5; 6; 7; 8 ]
      in
      Alcotest.(check (list int))
        "map result" [ 1; 4; 9; 16; 25; 36; 49; 64 ] squares;
      let work =
        List.filter (fun (s : Profiler.span) -> s.name = "work")
          (Profiler.spans ())
      in
      Alcotest.(check int) "one span per item" 8 (List.length work);
      (* the pool also wraps each task *)
      Alcotest.(check int) "pool.task spans" 8
        (List.length
           (List.filter
              (fun (s : Profiler.span) -> s.name = "pool.task")
              (Profiler.spans ())));
      (* a hand-spawned domain gets its own stream, keyed by Domain.self
         (which worker picks up which pool task is scheduling-dependent,
         so the pool alone can't deterministically prove >1 stream) *)
      Profiler.span "on-main" (fun () -> ());
      Domain.join
        (Domain.spawn (fun () -> Profiler.span "on-spawned" (fun () -> ())));
      Alcotest.(check bool) "several domains recorded" true
        (List.length
           (List.sort_uniq compare
              (List.map (fun (s : Profiler.span) -> s.domain) (Profiler.spans ())))
        >= 2);
      let domain_of name =
        (List.find (fun (s : Profiler.span) -> s.name = name)
           (Profiler.spans ()))
          .domain
      in
      Alcotest.(check bool) "streams keyed by domain" true
        (domain_of "on-main" <> domain_of "on-spawned"))

let test_enable_resets () =
  with_profiler (fun () ->
      Profiler.span "first" (fun () -> ());
      Profiler.enable ();
      Alcotest.(check int) "enable clears" 0 (List.length (Profiler.spans ()));
      Profiler.span "second" (fun () -> ());
      Alcotest.(check int) "added restarts" 1 (Profiler.added Wall);
      Alcotest.(check int) "nothing dropped" 0 (Profiler.dropped Wall))

(* -- Chrome export ---------------------------------------------------------- *)

(* The export written to a temporary file and parsed back. *)
let export ?clock () =
  let path = Filename.temp_file "dfs-chrome" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (Chrome.write ?clock);
      match Json.parse (In_channel.with_open_text path In_channel.input_all) with
      | Error e -> Alcotest.failf "chrome export does not re-parse: %s" e
      | Ok v -> (
        match Json.member "traceEvents" v with
        | Some (Json.List l) -> l
        | _ -> Alcotest.fail "no traceEvents array"))

let pid e = Option.bind (Json.member "pid" e) Json.to_int_opt

let by_ph ph = List.filter (fun e -> Json.member "ph" e = Some (Json.String ph))

(* Two sim spans recorded into a stream labelled [label], at sim times
   [t] and [t + 1]. *)
let record_sim label t =
  let clock = ref t in
  let s = Option.get (Profiler.stream ~label ~now:(fun () -> !clock)) in
  Profiler.recording s (fun () ->
      List.iter
        (fun (cat, name) ->
          if Profiler.admit () then
            Profiler.emit ~cat ~name ~t0:(Profiler.now ()) ~dur:0.25 [ ("bytes", Json.Int 7) ];
          clock := !clock +. 1.0)
        [ ("rpc", "open"); ("disk", "read") ])

let test_chrome_export_roundtrip () =
  with_profiler (fun () ->
      Profiler.span "phase-a" (fun () ->
          Profiler.span ~cat:"merge" "phase-b" (fun () -> ()));
      Profiler.enable_sim ();
      Fun.protect ~finally:Profiler.disable_sim (fun () ->
          (* created out of label order: pids follow the labels *)
          record_sim "sim-b" 3.0;
          record_sim "sim-a" 1.0);
      let events = export () in
      (* 2 wall spans + 2 sim spans in each of two simulations *)
      Alcotest.(check int) "complete events" 6 (List.length (by_ph "X" events));
      let process_names =
        List.filter_map
          (fun e ->
            if Json.member "name" e = Some (Json.String "process_name") then
              Option.bind (Json.member "args" e) (Json.member "name")
            else None)
          events
      in
      Alcotest.(check bool) "one process per clock and simulation, in label order" true
        (process_names
        = List.map
            (fun n -> Json.String n)
            [ "wall clock (profiler)"; "sim time: sim-a"; "sim time: sim-b" ]);
      Alcotest.(check (list int)) "pids" [ 1; 1; 2; 2; 3; 3 ]
        (List.filter_map pid (by_ph "X" events));
      (* one track per category; sim time maps microsecond-for-second *)
      let sim_a = List.filter (fun e -> pid e = Some 2) (by_ph "X" events) in
      Alcotest.(check (list (pair (option int) (option (float 1e-6)))))
        "tracks and timestamps"
        [ (Some 1, Some 1e6); (Some 0, Some 2e6) ]
        (List.map
           (fun e ->
             ( Option.bind (Json.member "tid" e) Json.to_int_opt,
               Option.bind (Json.member "ts" e) Json.to_float_opt ))
           sim_a);
      (* the sim-only file holds no wall process *)
      Alcotest.(check bool) "sim-only export" true
        (List.for_all (fun e -> pid e <> Some 1) (export ~clock:Profiler.Sim ()));
      Alcotest.(check (list string)) "wall spans stay wall" [ "phase-a"; "phase-b" ]
        (List.map (fun (s : Profiler.span) -> s.name) (Profiler.spans ())))

(* -- Pool gauges ------------------------------------------------------------ *)

let test_pool_utilization_gauges () =
  let g name =
    match Metrics.find name with
    | Some (Metrics.Gauge g) -> Metrics.gauge_value g
    | _ -> Alcotest.failf "gauge %s not published" name
  in
  let pool = Dfs_util.Pool.create ~jobs:2 () in
  ignore
    (Dfs_util.Pool.map pool
       (fun i -> Sys.opaque_identity (List.init 10_000 (fun j -> i * j)))
       [ 1; 2; 3; 4 ]);
  Alcotest.(check (float 0.0)) "worker count" 2.0 (g "pool.jobs");
  Alcotest.(check bool) "wall positive" true (g "pool.wall_s" > 0.0);
  Alcotest.(check bool) "per-domain busy gauges" true
    (g "pool.domain0.busy_s" >= 0.0 && g "pool.domain1.busy_s" >= 0.0);
  let u = g "pool.utilization" in
  Alcotest.(check bool) "utilization in (0, 1]" true (u > 0.0 && u <= 1.0);
  Alcotest.(check bool) "busy + idle = capacity" true
    (Float.abs
       (g "pool.busy_s" +. g "pool.idle_s"
       -. (2.0 *. g "pool.wall_s"))
    < 1e-6)

let suite =
  [
    ("profiler disabled records nothing", `Quick, test_disabled_records_nothing);
    ("profiler span nesting and fields", `Quick, test_span_nesting_and_fields);
    ("profiler span recorded on raise", `Quick, test_span_recorded_on_raise);
    ("profiler per-domain streams", `Quick, test_per_domain_streams);
    ("profiler enable resets", `Quick, test_enable_resets);
    ("chrome export round-trips", `Quick, test_chrome_export_roundtrip);
    ("pool utilization gauges", `Quick, test_pool_utilization_gauges);
  ]
