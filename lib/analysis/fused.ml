module B = Dfs_trace.Record_batch
module C = Dfs_consistency
module Polling = C.Polling

type overhead = {
  demand_bytes : int;
  demand_requests : int;
  sprite : C.Overhead.result;
  sprite_modified : C.Overhead.result;
  token : C.Overhead.result;
}

type t = {
  stats : Trace_stats.t;
  file_size : File_size.t;
  open_time : Open_time.t;
  run_length : Run_length.t;
  access_patterns : Access_patterns.t;
  lifetime : Lifetime.t;
  activity_10min : Activity.report;
  activity_10min_migrated : Activity.report;
  activity_10s : Activity.report;
  activity_10s_migrated : Activity.report;
  consistency : Consistency_stats.t;
  polling_60s : Polling.report;
  polling_3s : Polling.report;
  overhead : overhead;
}

(* Every fold of the pass.  The per-record folds see the records in
   trace order, the per-access ones see accesses in close order, and
   Table 2's activity fold also sees each run boundary. *)
type folds = {
  ts : Trace_stats.acc;
  lt : Lifetime.acc;
  fs : File_size.t;
  ot : Open_time.t;
  rl : Run_length.t;
  ap : Access_patterns.acc;
  activity : Activity.acc;
  consistency : Consistency_stats.acc;
  polling : Polling.acc;
  shared : C.Shared_events.acc;
}

let create ~t0 =
  {
    ts = Trace_stats.acc_create ();
    lt = Lifetime.acc_create ();
    fs = File_size.create ();
    ot = Open_time.create ();
    rl = Run_length.create ();
    ap = Access_patterns.acc_create ();
    activity =
      Activity.acc_create ~t0
        [ (600.0, false); (600.0, true); (10.0, false); (10.0, true) ];
    consistency = Consistency_stats.acc_create ();
    polling = Polling.acc_create ~intervals:[ 60.0; 3.0 ];
    shared = C.Shared_events.acc_create ();
  }

let on_record f batch i =
  Trace_stats.acc_record f.ts batch i;
  Lifetime.acc_record f.lt batch i;
  Activity.acc_record f.activity batch i;
  Consistency_stats.acc_record f.consistency batch i;
  Polling.acc_record f.polling batch i;
  C.Shared_events.acc_record f.shared batch i

let on_access f a =
  Trace_stats.acc_access f.ts a;
  File_size.add f.fs a;
  Open_time.add f.ot a;
  Run_length.add f.rl a;
  Access_patterns.acc_add f.ap a;
  Lifetime.acc_access f.lt a

(* Table 12: the write-shared files' events, extracted in a second
   pass over the same stream, and the three mechanisms run over them. *)
let overhead shared batches =
  let streams = C.Shared_events.acc_finish shared batches in
  {
    demand_bytes = C.Shared_events.total_requested streams;
    demand_requests = C.Shared_events.total_requests streams;
    sprite = C.Sprite.simulate streams;
    sprite_modified = C.Sprite_modified.simulate streams;
    token = C.Token.simulate streams;
  }

let finish f batches =
  match (Activity.acc_finish f.activity, Polling.acc_finish f.polling) with
  | [ a600; a600_mig; a10; a10_mig ], [ p60; p3 ] ->
    {
      stats = Trace_stats.acc_finish f.ts;
      file_size = f.fs;
      open_time = f.ot;
      run_length = f.rl;
      access_patterns = Access_patterns.acc_finish f.ap;
      lifetime = Lifetime.acc_finish f.lt;
      activity_10min = a600;
      activity_10min_migrated = a600_mig;
      activity_10s = a10;
      activity_10s_migrated = a10_mig;
      consistency = Consistency_stats.acc_finish f.consistency;
      polling_60s = p60;
      polling_3s = p3;
      overhead = overhead f.shared batches;
    }
  | _ -> assert false

(* The first record's time, the origin of Table 2's intervals, and the
   same stream: only the chunks up to that record are forced, and the
   stream is not replayed. *)
let with_origin batches =
  match Seq.drop_while (fun b -> B.length b = 0) batches () with
  | Seq.Nil -> (Float.nan, Seq.empty)
  | Seq.Cons (b, _) as node -> (B.time b 0, fun () -> node)

let analyze_seq batches =
  Dfs_obs.Profiler.span ~cat:"analysis" "fused.analyze" (fun () ->
      let t0, batches = with_origin batches in
      let f = create ~t0 in
      Session.sweep_seq batches ~on_record:(on_record f)
        ~on_boundary:(Activity.acc_boundary f.activity) ~on_access:(on_access f);
      finish f batches)

let analyze batch = analyze_seq (Seq.return batch)

(* perfbench still passes [~pool]; see the interface. *)
let analyze_chunks ?pool:_ chunks = analyze_seq (Dfs_trace.Sink.to_seq chunks)
