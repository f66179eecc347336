(* The sharded (conservative-PDES) simulation: window-floor safety, the
   lookahead contract on cross-partition sends, worker-count
   independence of partitioned runs (their traces, spans and published
   metrics), fault-schedule splitting, the worker team, and the keyed
   RNG splits partitions are seeded from. *)

module Engine = Dfs_sim.Engine
module Pdes = Dfs_sim.Pdes
module Sharded = Dfs_workload.Sharded
module Team = Dfs_util.Pool.Team
module Pool = Dfs_util.Pool
module Rng = Dfs_util.Rng
module Profile = Dfs_fault.Profile
module Schedule = Dfs_fault.Schedule
module Injector = Dfs_fault.Injector

(* -- window-floor hard error -------------------------------------------------- *)

let test_run_window_floor_error () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~at:1.0 (fun () -> ()));
  (* a live event strictly below the floor is a protocol violation, not
     something to silently skip or execute *)
  Alcotest.check_raises "below-floor event is a hard error"
    (Engine.Below_floor { time = 1.0; floor = 2.0 })
    (fun () -> Engine.run_window e ~floor:2.0 10.0);
  (* at the floor is legal *)
  let e2 = Engine.create () in
  let ran = ref false in
  ignore (Engine.schedule e2 ~at:2.0 (fun () -> ran := true));
  Engine.run_window e2 ~floor:2.0 10.0;
  Alcotest.(check bool) "event at the floor runs" true !ran

let test_run_window_equals_run_until () =
  (* slicing the same event sequence into windows is output-invariant *)
  let sim windows =
    let e = Engine.create () in
    let log = ref [] in
    for i = 1 to 20 do
      ignore
        (Engine.schedule e
           ~at:(float_of_int i *. 0.7)
           (fun () -> log := i :: !log))
    done;
    if windows then begin
      let floor = ref 0.0 in
      while !floor < 20.0 do
        let horizon = !floor +. 1.3 in
        Engine.run_window e ~floor:!floor horizon;
        floor := horizon
      done
    end
    else Engine.run_until e 20.0;
    List.rev !log
  in
  Alcotest.(check (list int)) "windowed equals monolithic" (sim false)
    (sim true)

(* -- lookahead contract on cross-partition sends ------------------------------ *)

let test_post_lookahead_violation () =
  let engines = [| Engine.create (); Engine.create () |] in
  let pdes = Pdes.create ~lookahead:0.05 engines in
  (* targeting closer than now + lookahead must raise *)
  Alcotest.check_raises "send below the lookahead horizon"
    (Pdes.Lookahead_violation { at = 0.01; min_at = 0.05 })
    (fun () -> Pdes.post pdes ~src:0 ~dst:1 ~at:0.01 (fun () -> ()));
  (* exactly at the horizon is legal *)
  Pdes.post pdes ~src:0 ~dst:1 ~at:0.05 (fun () -> ());
  Alcotest.(check int) "legal send counted" 1 (Pdes.messages pdes)

let test_create_rejects_wide_window () =
  let two () = [| Engine.create (); Engine.create () |] in
  Alcotest.check_raises "window wider than lookahead"
    (Invalid_argument "Pdes.create: window wider than lookahead")
    (fun () -> ignore (Pdes.create ~lookahead:0.05 ~window:0.1 (two ())));
  (* one partition exchanges no messages, so any window is fine *)
  let p = Pdes.create ~lookahead:0.05 ~window:10.0 [| Engine.create () |] in
  Alcotest.(check int) "single partition accepted" 1 (Pdes.partitions p)

let test_pdes_delivery_order () =
  (* same-timestamp messages from different sources deliver in (at, src,
     seq) order whatever the post order *)
  let engines = [| Engine.create (); Engine.create (); Engine.create () |] in
  let pdes = Pdes.create ~lookahead:0.1 engines in
  let log = ref [] in
  let mark tag () = log := tag :: !log in
  Pdes.post pdes ~src:2 ~dst:0 ~at:0.1 (mark "s2a");
  Pdes.post pdes ~src:1 ~dst:0 ~at:0.1 (mark "s1a");
  Pdes.post pdes ~src:1 ~dst:0 ~at:0.1 (mark "s1b");
  Pdes.post pdes ~src:2 ~dst:0 ~at:0.2 (mark "s2b");
  Pdes.run pdes ~until:1.0 ();
  Alcotest.(check (list string))
    "timestamp, then source partition, then emission sequence"
    [ "s1a"; "s1b"; "s2a"; "s2b" ]
    (List.rev !log)

(* -- partitioned runs are pure in (seed, size), not worker count -------------- *)

let shard_cfg ?(n_clients = 48) ?(seed = 42) () =
  {
    Sharded.default_config with
    Sharded.n_clients;
    n_servers = 2;
    seed;
    duration = 240.0;
    partitions = Some 2;
  }

let run_fingerprint ~workers cfg =
  let r = Sharded.run ~workers cfg in
  let fp =
    ( Sharded.digest r.Sharded.merged,
      r.Sharded.partitions,
      r.Sharded.barriers,
      r.Sharded.remote_msgs,
      r.Sharded.users )
  in
  Sharded.release r;
  fp

let prop_workers_do_not_change_output =
  QCheck.Test.make ~name:"sharded run is pure in (seed, size)" ~count:4
    QCheck.(pair (int_bound 1000) (int_bound 2))
    (fun (seed, extra) ->
      let cfg = shard_cfg ~n_clients:(40 + (8 * extra)) ~seed () in
      let seq = run_fingerprint ~workers:1 cfg in
      let par = run_fingerprint ~workers:2 cfg in
      seq = par)

let test_sharded_digest_sensitive () =
  (* the fingerprint actually discriminates: different seeds, different
     digests (a constant digest would make the identity matrix vacuous) *)
  let a = run_fingerprint ~workers:1 (shard_cfg ~seed:1 ()) in
  let b = run_fingerprint ~workers:1 (shard_cfg ~seed:2 ()) in
  let d (x, _, _, _, _) = x in
  Alcotest.(check bool) "seeds give distinct digests" true (d a <> d b)

let test_sharded_exchanges_messages () =
  let cfg = shard_cfg () in
  let r = Sharded.run ~workers:1 cfg in
  Alcotest.(check bool) "barriers happened" true (r.Sharded.barriers > 0);
  Alcotest.(check bool)
    "cross-partition messages flowed" true
    (r.Sharded.remote_msgs > 0);
  Alcotest.(check bool)
    "trace non-empty" true
    (Dfs_trace.Sink.length r.Sharded.merged > 0);
  Sharded.release r

(* Each partition's sim spans from one run on [workers] workers. *)
let sim_spans ~workers cfg =
  let module P = Dfs_obs.Profiler in
  P.enable_sim ();
  Fun.protect ~finally:P.disable_sim (fun () ->
      Sharded.release (Sharded.run ~workers cfg);
      List.map (fun (label, spans) -> (label, List.of_seq spans)) (P.simulations ()))

let test_sharded_sim_spans_pure () =
  let cfg = shard_cfg () in
  let seq = sim_spans ~workers:1 cfg and par = sim_spans ~workers:2 cfg in
  Alcotest.(check (list string))
    "one stream per partition" [ "scale-part0"; "scale-part1" ] (List.map fst par);
  Alcotest.(check bool) "same spans on 1 and 2 workers" true (seq = par);
  (* Events run in time order, so spans stamped by their own partition's
     clock never go back in time and stay inside the run; a clock left
     at 0 or borrowed from the other partition would break either. *)
  List.iter
    (fun (label, spans) ->
      let t0s = List.map (fun (s : Dfs_obs.Profiler.span) -> s.t0) spans in
      let rec ordered = function
        | a :: (b :: _ as rest) -> a <= b && ordered rest
        | [ last ] -> last <= cfg.duration
        | [] -> false
      in
      Alcotest.(check bool) (label ^ ": stamps in event order, inside the run") true
        (List.hd t0s > 0.0 && ordered t0s))
    par

(* The metrics snapshot of one run on [workers] workers, wall-clock keys
   aside. *)
let metrics_snapshot ~workers cfg =
  let module M = Dfs_obs.Metrics in
  M.reset ();
  Sharded.release (Sharded.run ~workers cfg);
  let wall k =
    List.exists
      (fun p -> String.starts_with ~prefix:p k)
      [ "phase."; "pool."; "gc."; "sim.shard" ]
  in
  match M.to_json () with
  | Dfs_obs.Json.Obj kvs ->
    List.map
      (fun (k, v) -> (k, Dfs_obs.Json.to_string v))
      (List.filter (fun (k, _) -> not (wall k)) kvs)
  | _ -> Alcotest.fail "snapshot is not an object"

let test_sharded_metrics_pure () =
  let cfg =
    {
      (shard_cfg ()) with
      Sharded.duration = 1800.0;
      fault_profile = Option.get (Profile.of_name "heavy");
    }
  in
  let seq = metrics_snapshot ~workers:1 cfg in
  let par = metrics_snapshot ~workers:2 cfg in
  Alcotest.(check (list (pair string string))) "same snapshot on 1 and 2 workers" seq par;
  (* the run exercised what the snapshot compares *)
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " nonzero") true
        (match List.assoc_opt k par with
         | Some v -> v <> "0" && not (String.starts_with ~prefix:{|{"count":0,|} v)
         | None -> false))
    [ "sim.fault.crashes"; "sim.fault.bytes_at_risk"; "sim.fault.outage_s";
      "sim.pdes.remote_reads"; "sim.pdes.window_s"; "sim.cache.dirty_age_s" ]

let test_auto_partitions_pure () =
  Alcotest.(check int) "small cluster stays monolithic" 1
    (Sharded.auto_partitions ~n_clients:40 ~n_servers:4);
  Alcotest.(check int) "~64 clients per partition" 3
    (Sharded.auto_partitions ~n_clients:192 ~n_servers:8);
  Alcotest.(check int) "capped by server count" 4
    (Sharded.auto_partitions ~n_clients:5000 ~n_servers:4)

(* -- fault-schedule splitting ------------------------------------------------- *)

let test_fault_schedule_split () =
  let profile = Option.get (Profile.of_name "heavy") in
  let horizon = 7200.0 in
  let n_servers = 4 in
  let global = Schedule.generate ~profile ~n_servers ~horizon in
  (* two partitions owning servers [0,1] and [2,3]; each generates the
     full global schedule and answers for its slice *)
  let parts =
    [
      Injector.create ~profile ~n_servers:2 ~server_id_base:0
        ~schedule_servers:n_servers ~horizon ();
      Injector.create ~profile ~n_servers:2 ~server_id_base:2
        ~schedule_servers:n_servers ~horizon ();
    ]
  in
  List.iteri
    (fun p inj ->
      for local = 0 to 1 do
        let g = (2 * p) + local in
        Alcotest.(check bool)
          (Printf.sprintf "server %d windows identical to unpartitioned" g)
          true
          (Schedule.server_outages (Injector.schedule inj) g
          = Schedule.server_outages global g)
      done)
    parts

(* -- the worker team ---------------------------------------------------------- *)

let test_team_runs_every_member () =
  let team = Team.create ~size:3 in
  Fun.protect
    ~finally:(fun () -> Team.shutdown team)
    (fun () ->
      let hits = Array.make 3 0 in
      Team.run team (fun m -> hits.(m) <- hits.(m) + 1);
      Alcotest.(check (array int)) "each member ran once" [| 1; 1; 1 |] hits;
      (* generations: the same team re-enters cleanly *)
      Team.run team (fun m -> hits.(m) <- hits.(m) + 10);
      Alcotest.(check (array int)) "reused across generations"
        [| 11; 11; 11 |] hits)

exception Member_boom of int

let test_team_lowest_member_exception_wins () =
  let team = Team.create ~size:4 in
  Fun.protect
    ~finally:(fun () -> Team.shutdown team)
    (fun () ->
      let got =
        try
          Team.run team (fun m ->
              if m >= 1 then raise (Member_boom m) else ());
          None
        with Member_boom m -> Some m
      in
      Alcotest.(check (option int)) "lowest raising member wins" (Some 1) got;
      (* the team survives a raising generation *)
      let ok = ref 0 in
      Team.run team (fun _ -> ignore (Atomic.fetch_and_add (Atomic.make 0) 0));
      Team.run team (fun m -> if m = 0 then incr ok);
      Alcotest.(check int) "usable after exception" 1 !ok)

let test_team_size_one_inline () =
  let team = Team.create ~size:1 in
  Fun.protect
    ~finally:(fun () -> Team.shutdown team)
    (fun () ->
      let ran = ref false in
      Team.run team (fun m ->
          Alcotest.(check int) "only member 0" 0 m;
          ran := true);
      Alcotest.(check bool) "ran inline" true !ran)

let test_team_composes_with_pool () =
  (* no production path nests a team in a pool task any more, but doing
     so is legal: a team created inside a Pool.map task must not trip
     the pool's nested-use guard *)
  let pool = Pool.create ~jobs:2 () in
  let results =
    Pool.map pool
      (fun x ->
        let team = Team.create ~size:2 in
        Fun.protect
          ~finally:(fun () -> Team.shutdown team)
          (fun () ->
            let acc = Array.make 2 0 in
            Team.run team (fun m -> acc.(m) <- x + m);
            acc.(0) + acc.(1)))
      [ 10; 20; 30 ]
  in
  Alcotest.(check (list int)) "teams inside pool tasks" [ 21; 41; 61 ] results

(* -- keyed RNG splits --------------------------------------------------------- *)

let test_derive_seed_pure_and_keyed () =
  Alcotest.(check int) "pure in (seed, key)"
    (Rng.derive_seed 42 7) (Rng.derive_seed 42 7);
  Alcotest.(check bool) "distinct keys, distinct seeds" true
    (Rng.derive_seed 42 0 <> Rng.derive_seed 42 1);
  Alcotest.(check bool) "distinct seeds, distinct derivations" true
    (Rng.derive_seed 1 0 <> Rng.derive_seed 2 0);
  Alcotest.(check bool) "non-negative (usable as a seed)" true
    (Rng.derive_seed 42 7 >= 0)

let test_split_key_does_not_advance_parent () =
  let control = Rng.create 1234 in
  let probed = Rng.create 1234 in
  let _ = Rng.split_key probed 5 in
  let _ = Rng.split_key probed 9 in
  Alcotest.(check (list int)) "parent stream untouched by keyed splits"
    (List.init 8 (fun _ -> Rng.int control 1000))
    (List.init 8 (fun _ -> Rng.int probed 1000))

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest [ prop_workers_do_not_change_output ]

let suite =
  [
    Alcotest.test_case "engine: below-floor is a hard error" `Quick
      test_run_window_floor_error;
    Alcotest.test_case "engine: windowed equals monolithic" `Quick
      test_run_window_equals_run_until;
    Alcotest.test_case "pdes: lookahead violation raises" `Quick
      test_post_lookahead_violation;
    Alcotest.test_case "pdes: window wider than lookahead rejected" `Quick
      test_create_rejects_wide_window;
    Alcotest.test_case "pdes: total delivery order" `Quick
      test_pdes_delivery_order;
    Alcotest.test_case "sharded: digest discriminates seeds" `Slow
      test_sharded_digest_sensitive;
    Alcotest.test_case "sharded: barriers and messages flow" `Slow
      test_sharded_exchanges_messages;
    Alcotest.test_case "sharded: auto partition layout" `Quick
      test_auto_partitions_pure;
    Alcotest.test_case "fault: split schedule equals global" `Quick
      test_fault_schedule_split;
    Alcotest.test_case "team: runs every member" `Quick
      test_team_runs_every_member;
    Alcotest.test_case "team: lowest member exception wins" `Quick
      test_team_lowest_member_exception_wins;
    Alcotest.test_case "team: size 1 runs inline" `Quick
      test_team_size_one_inline;
    Alcotest.test_case "team: composes with pool map" `Quick
      test_team_composes_with_pool;
    Alcotest.test_case "rng: derive_seed pure and keyed" `Quick
      test_derive_seed_pure_and_keyed;
    Alcotest.test_case "rng: split_key leaves parent untouched" `Quick
      test_split_key_does_not_advance_parent;
    Alcotest.test_case "sharded: sim spans pure in workers, own clocks" `Slow
      test_sharded_sim_spans_pure;
    Alcotest.test_case "sharded: faulty metrics snapshot pure in workers" `Slow
      test_sharded_metrics_pure;
  ]
  @ qcheck_tests
