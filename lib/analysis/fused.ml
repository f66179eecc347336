module B = Dfs_trace.Record_batch
module Polling = Dfs_consistency.Polling

type t = {
  stats : Trace_stats.t;
  file_size : File_size.t;
  open_time : Open_time.t;
  run_length : Run_length.t;
  access_patterns : Access_patterns.t;
  lifetime : Lifetime.t;
  accesses : Session.access list;
  activity_10min : Activity.report;
  activity_10min_migrated : Activity.report;
  activity_10s : Activity.report;
  activity_10s_migrated : Activity.report;
  consistency : Consistency_stats.t;
  polling_60s : Polling.report;
  polling_3s : Polling.report;
}

(* Table 2's four activity folds.  Their per-record half needs every
   record in trace order; their boundary half only sums bytes. *)
type activity = {
  all_10min : Activity.acc;
  mig_10min : Activity.acc;
  all_10s : Activity.acc;
  mig_10s : Activity.acc;
}

let activity_create ~t0 =
  let acc ?migrated_only interval =
    Activity.acc_create ?migrated_only ~interval ~t0 ()
  in
  {
    all_10min = acc 600.0;
    mig_10min = acc ~migrated_only:true 600.0;
    all_10s = acc 10.0;
    mig_10s = acc ~migrated_only:true 10.0;
  }

let activity_accs a = [ a.all_10min; a.mig_10min; a.all_10s; a.mig_10s ]

let activity_record a batch i =
  Activity.acc_record a.all_10min batch i;
  Activity.acc_record a.mig_10min batch i;
  Activity.acc_record a.all_10s batch i;
  Activity.acc_record a.mig_10s batch i

let activity_boundary a ~user ~migrated ~is_dir ~time run =
  Activity.acc_boundary a.all_10min ~user ~migrated ~is_dir ~time run;
  Activity.acc_boundary a.mig_10min ~user ~migrated ~is_dir ~time run;
  Activity.acc_boundary a.all_10s ~user ~migrated ~is_dir ~time run;
  Activity.acc_boundary a.mig_10s ~user ~migrated ~is_dir ~time run

(* The folds that keep per-file state across clients, so need every
   record in trace order: Table 2's per-record half, Table 10's
   consistency actions and Table 11's two polling simulations. *)
type ordered = {
  activity : activity;
  consistency : Consistency_stats.acc;
  polling_60s : Polling.acc;
  polling_3s : Polling.acc;
}

let ordered_create activity =
  {
    activity;
    consistency = Consistency_stats.acc_create ();
    polling_60s = Polling.acc_create ~interval:60.0;
    polling_3s = Polling.acc_create ~interval:3.0;
  }

let ordered_record o batch i =
  activity_record o.activity batch i;
  Consistency_stats.acc_record o.consistency batch i;
  Polling.acc_record o.polling_60s batch i;
  Polling.acc_record o.polling_3s batch i

(* The first record's time, the origin of Table 2's intervals, and the
   same stream: only the chunks up to that record are forced, and the
   stream is not replayed. *)
let with_origin batches =
  match Seq.drop_while (fun b -> B.length b = 0) batches () with
  | Seq.Nil -> (Float.nan, Seq.empty)
  | Seq.Cons (b, _) as node -> (B.time b 0, fun () -> node)

(* The per-access folds, fed in close order. *)
type per_access = {
  ts : Trace_stats.acc;
  fs : File_size.t;
  ot : Open_time.t;
  rl : Run_length.t;
  ap : Access_patterns.acc;
  lt : Lifetime.acc;
}

let per_access_create ts =
  {
    ts;
    fs = File_size.create ();
    ot = Open_time.create ();
    rl = Run_length.create ();
    ap = Access_patterns.acc_create ();
    lt = Lifetime.acc_create ();
  }

let per_access_add p a =
  Trace_stats.acc_access p.ts a;
  File_size.add p.fs a;
  Open_time.add p.ot a;
  Run_length.add p.rl a;
  Access_patterns.acc_add p.ap a;
  Lifetime.acc_access p.lt a

let finish p o ~accesses =
  {
    stats = Trace_stats.acc_finish p.ts;
    file_size = p.fs;
    open_time = p.ot;
    run_length = p.rl;
    access_patterns = Access_patterns.acc_finish p.ap;
    lifetime = Lifetime.acc_finish p.lt;
    accesses;
    activity_10min = Activity.acc_finish o.activity.all_10min;
    activity_10min_migrated = Activity.acc_finish o.activity.mig_10min;
    activity_10s = Activity.acc_finish o.activity.all_10s;
    activity_10s_migrated = Activity.acc_finish o.activity.mig_10s;
    consistency = Consistency_stats.acc_finish o.consistency;
    polling_60s = Polling.acc_finish o.polling_60s;
    polling_3s = Polling.acc_finish o.polling_3s;
  }

let analyze_seq_unprofiled batches =
  let t0, batches = with_origin batches in
  let p = per_access_create (Trace_stats.acc_create ()) in
  let o = ordered_create (activity_create ~t0) in
  let accesses_rev = ref [] in
  Session.sweep_seq batches
    ~on_record:(fun batch i ->
      Trace_stats.acc_record p.ts batch i;
      Lifetime.acc_record p.lt batch i;
      ordered_record o batch i)
    ~on_boundary:(activity_boundary o.activity)
    ~on_access:(fun a ->
      accesses_rev := a :: !accesses_rev;
      per_access_add p a);
  finish p o ~accesses:(List.rev !accesses_rev)

let analyze_seq batches =
  Dfs_obs.Profiler.span ~cat:"analysis" "fused.analyze" (fun () ->
      analyze_seq_unprofiled batches)

let analyze batch = analyze_seq (Seq.return batch)

(* -- sharded pass ---------------------------------------------------------- *)

(* One shard's harvest: the commutative per-record accumulator, the
   activity bytes of its own clients' run boundaries, and the
   order-sensitive event streams, each tagged with the global index of
   the record that produced it (ascending by construction).  Shard 0
   also carries the global-order folds. *)
type shard = {
  sh_stats : Trace_stats.acc;
  sh_activity : activity;
  sh_ordered : ordered option;
  sh_accesses : (int * Session.access) list;
  sh_deaths : (int * (float * Dfs_trace.Ids.File.t * int)) list;
}

(* Every shard walks every chunk and keeps its own clients' records.
   Shard 0's walk also feeds the global-order folds every record of each
   chunk, before the client-filtered sweep sees the chunk. *)
let scan_shard batches ~shard ~nshards =
  Dfs_obs.Profiler.span ~cat:"analysis"
    (Printf.sprintf "fused.shard%d" shard)
    (fun () ->
      let t0, batches = with_origin batches in
      let ts = Trace_stats.acc_create () in
      let activity = activity_create ~t0 in
      let ordered = if shard = 0 then Some (ordered_create activity) else None in
      let batches =
        match ordered with
        | None -> batches
        | Some o ->
          Seq.map
            (fun batch ->
              for i = 0 to B.length batch - 1 do
                ordered_record o batch i
              done;
              batch)
            batches
      in
      let accesses_rev = ref [] in
      let deaths_rev = ref [] in
      Session.sweep_shard_seq batches ~shard ~nshards
        ~on_record:(fun ~gidx batch i ->
          Trace_stats.acc_record ts batch i;
          match Lifetime.death_of_record batch i with
          | Some d -> deaths_rev := (gidx, d) :: !deaths_rev
          | None -> ())
        ~on_boundary:(activity_boundary activity)
        ~on_access:(fun ~gidx a -> accesses_rev := (gidx, a) :: !accesses_rev);
      {
        sh_stats = ts;
        sh_activity = activity;
        sh_ordered = ordered;
        sh_accesses = List.rev !accesses_rev;
        sh_deaths = List.rev !deaths_rev;
      })

(* Per-shard streams are ascending in global index and pairwise disjoint
   (each record belongs to exactly one shard), so a k-way [List.merge]
   rebuilds the exact order the sequential sweep would have produced. *)
let merge_by_gidx lists =
  let cmp (g1, _) (g2, _) = Int.compare g1 g2 in
  List.fold_left (fun acc l -> List.merge cmp acc l) [] lists

(* Reassemble the sequential result from shard harvests: merge the
   commutative stats and activity bytes, then replay accesses and deaths
   in global record order through the same per-access accumulators the
   sequential pass uses — every list and every Cdf sees items in the
   identical order, so the result is bit-for-bit the sequential one. *)
let assemble shards =
  Dfs_obs.Profiler.span ~cat:"analysis" "fused.merge" (fun () ->
      let s0 = List.hd shards in
      let o = Option.get s0.sh_ordered in
      let ts = Trace_stats.acc_create () in
      List.iter
        (fun s ->
          Trace_stats.acc_merge ts s.sh_stats;
          if s != s0 then
            List.iter2 Activity.acc_merge (activity_accs o.activity)
              (activity_accs s.sh_activity))
        shards;
      let p = per_access_create ts in
      let accesses = merge_by_gidx (List.map (fun s -> s.sh_accesses) shards) in
      let accesses =
        List.map
          (fun (_, a) ->
            per_access_add p a;
            a)
          accesses
      in
      List.iter
        (fun (_, (time, file, size)) -> Lifetime.acc_death p.lt ~time ~file ~size)
        (merge_by_gidx (List.map (fun s -> s.sh_deaths) shards));
      finish p o ~accesses)

let analyze_chunks ?pool chunks =
  let batches () = Dfs_trace.Sink.to_seq chunks in
  match pool with
  | Some pool
    when Dfs_util.Pool.jobs pool > 1 && not (Dfs_util.Pool.in_pool_task ()) ->
    let nshards = Dfs_util.Pool.jobs pool in
    Dfs_obs.Profiler.span ~cat:"analysis" "fused.analyze_sharded" (fun () ->
        assemble
          (Dfs_util.Pool.map pool
             (fun shard -> scan_shard (batches ()) ~shard ~nshards)
             (List.init nshards Fun.id)))
  | Some _ | None -> analyze_seq (batches ())
