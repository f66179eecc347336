(* One benchmark child: set up one workload for one seed, run its
   measured part once, check the outputs and print one JSON line.

   perfbench/run.py starts a fresh child per sample and aggregates them;
   see perfbench/README.md for the workloads, the metrics and why they
   exist.  Every layer is reached through its public functions, and
   every call into a layer is timed here, by the benchmark, with
   [Gc.quick_stat] deltas around it.  In a traced child the profiler is
   on, and the same calls become spans ("bench.<layer>...") beside the
   spans the program emits itself. *)

module Metrics = Dfs_obs.Metrics
module Profiler = Dfs_obs.Profiler
module Dataset = Dfs_core.Dataset
module Experiment = Dfs_core.Experiment
module Sink = Dfs_trace.Sink

let now = Unix.gettimeofday

(* -- command line ------------------------------------------------------------ *)

let workload = ref ""
let seed = ref 42
let size = ref "full"
let phase = ref "measure"
let traced = ref false
let t_spawn = ref nan
let work_dir = ref ""
let profile_out = ref ""
let bad_rows = ref 0
let helper = ref false
let until = ref 0.0
let reserve_setups = ref 0

let spec =
  [
    ("--workload", Arg.Set_string workload, "NAME paper|scale|replay|reanalyze");
    ("--seed", Arg.Set_int seed, "N input seed");
    ("--size", Arg.Set_string size, "full|tiny (tiny is for the smoke test)");
    ("--phase", Arg.Set_string phase, "measure|setup (setup: stop after set-up)");
    ("--traced", Arg.Set traced, " profile this child and report per-layer metrics");
    ("--t-spawn", Arg.Set_float t_spawn, "T epoch seconds at which the parent spawned us");
    ("--work-dir", Arg.Set_string work_dir, "DIR working directory for inputs and spills");
    ("--profile-out", Arg.Set_string profile_out, "FILE Chrome trace of a traced child");
    ("--bad-rows", Arg.Set_int bad_rows, "N malformed rows appended to the replay CSV");
    ("--until", Arg.Set_float until, "T epoch seconds: start no rep that would end after T");
    ( "--reserve-setups",
      Arg.Set_int reserve_setups,
      "N leave time before --until for N more set-ups, if that is a tenth of the run at most" );
    ("--reference-helper", Arg.Set helper, " serve reference timings (started by a child)");
  ]

(* -- sizes ----------------------------------------------------------------- *)

type size = {
  preset_scale : float;  (** [Dataset.generate] scale for paper/reanalyze *)
  clients : int;  (** scale workload *)
  servers : int;
  sim_seconds : float;
  csv_rows : int;  (** replay workload *)
}

let full =
  {
    preset_scale = 0.05;
    clients = 256;
    servers = 4;
    sim_seconds = 3600.0;
    csv_rows = 50_000;
  }

let tiny =
  {
    preset_scale = 0.004;
    clients = 128;
    servers = 2;
    sim_seconds = 600.0;
    csv_rows = 3_000;
  }

(* -- per-call accounting ---------------------------------------------------- *)

type call = {
  mutable wall : float;
  mutable minor_words : float;
  mutable promoted_words : float;
}

let calls : (string, call) Hashtbl.t = Hashtbl.create 16

(* Times one call into a layer (from the main domain only).  [name] is
   "<layer>" or "<layer>.<what>"; the span is "bench.<name>". *)
let timed name f =
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let result = Profiler.span ~cat:"bench" ("bench." ^ name) f in
  let dt = now () -. t0 in
  let g1 = Gc.quick_stat () in
  let c =
    match Hashtbl.find_opt calls name with
    | Some c -> c
    | None ->
      let c = { wall = 0.0; minor_words = 0.0; promoted_words = 0.0 } in
      Hashtbl.add calls name c;
      c
  in
  c.wall <- c.wall +. dt;
  c.minor_words <- c.minor_words +. (g1.minor_words -. g0.minor_words);
  c.promoted_words <- c.promoted_words +. (g1.promoted_words -. g0.promoted_words);
  result

let call name =
  match Hashtbl.find_opt calls name with
  | Some c -> c
  | None -> { wall = 0.0; minor_words = 0.0; promoted_words = 0.0 }

let counter name =
  match Metrics.find name with
  | Some (Metrics.Counter c) -> Metrics.value c
  | Some _ | None -> 0

let gauge name =
  match Metrics.find name with
  | Some (Metrics.Gauge g) -> Metrics.gauge_value g
  | Some _ | None -> 0.0

(* The pool gauges describe the most recent [Pool.map] only, so they
   are zeroed before and summed after each call that maps. *)
let pool_busy = ref 0.0
let pool_idle = ref 0.0

let pool_collect f =
  Metrics.set (Metrics.gauge "pool.busy_s") 0.0;
  Metrics.set (Metrics.gauge "pool.idle_s") 0.0;
  let result = f () in
  pool_busy := !pool_busy +. gauge "pool.busy_s";
  pool_idle := !pool_idle +. gauge "pool.idle_s";
  result

(* Per-experiment render times, filled in by whichever domain rendered. *)
let experiment_s : (string * float) list ref = ref []

(* -- outputs of a run ------------------------------------------------------- *)

type outcome = {
  ops : int;  (** trace records, or CSV rows for replay *)
  rejected : int;  (** rejected rows plus skipped records *)
  records : int;  (** trace records the run produced *)
  outputs : (string * Dfs_obs.Json.t) list;  (** compared by run.py *)
  checks : (string * bool) list;
  extra : (string * float) list;  (** workload-specific layer metrics *)
}

let tables_md5 rendered =
  let b = Buffer.create (1 lsl 16) in
  List.iter
    (fun (id, out) -> Printf.bprintf b "=== %s ===\n%s\n" id out)
    rendered;
  Digest.to_hex (Digest.string (Buffer.contents b))

let total_records (ds : Dataset.t) =
  List.fold_left (fun acc (r : Dataset.run) -> acc + Sink.length r.trace) 0 ds.runs

(* The fused pass, run from the top level so it shards over the run's
   domain budget, then the 16 renderings in experiment order. *)
let fused_all (ds : Dataset.t) =
  timed "analysis.fused" (fun () ->
      List.iter
        (fun r -> pool_collect (fun () -> ignore (Dataset.fused r)))
        ds.runs)

(* The same pass without the per-run memo that [Dataset.fused] fills,
   so that a dataset analysed before pays for the pass again. *)
let fused_again (ds : Dataset.t) =
  timed "analysis.fused" (fun () ->
      List.iter
        (fun (r : Dataset.run) ->
          pool_collect (fun () ->
              let pool = Dfs_util.Pool.create ~jobs:r.jobs () in
              ignore
                (Sys.opaque_identity (Dfs_analysis.Fused.analyze_chunks ~pool r.trace))))
        ds.runs)

let render_one ds (e : Experiment.t) =
  let t0 = now () in
  let out = e.run ds in
  (e.id, out, now () -. t0)

let render_seq ds =
  timed "analysis.experiments" (fun () ->
      List.map (render_one ds) Experiment.all)

let render_pool pool ds =
  timed "analysis.experiments" (fun () ->
      pool_collect (fun () -> Dfs_util.Pool.map pool (render_one ds) Experiment.all))

let keep_renders rendered =
  experiment_s := List.map (fun (id, _, s) -> (id, s)) rendered;
  List.map (fun (id, out, _) -> (id, out)) rendered

(* -- the replay input ------------------------------------------------------- *)

(* SplitMix64, owned by the benchmark so that no change to the program
   can alter the generated input. *)
module Prng = struct
  type t = { mutable state : int64 }

  let make seed = { state = Int64.of_int seed }

  let bits t =
    t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
    let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
    Int64.(logxor z (shift_right_logical z 31))

  (* uniform in [0, 1) *)
  let float t = Int64.to_float (Int64.shift_right_logical (bits t) 11) *. 0x1p-53

  let below t n = min (n - 1) (int_of_float (float t *. float_of_int n))

  let exponential t mean = -.mean *. log (1.0 -. float t)
end

let csv_hosts = 32
let csv_disks = 2

(* Each host/disk pair is one file of [csv_extent] bytes, far above the
   client caches, so reads mostly miss and evict. *)
let csv_extent = 1 lsl 30

(* Share of bursts that go back to where the previous burst on the same
   file started, so some reads hit in the client cache. *)
let revisit = 0.5

(* Bursts: a host picked with Zipf(1) popularity touches one of its
   disks with a sequential streak of requests 20 ms apart, then falls
   silent; the next burst starts an exponential 4 s later (well past
   the importer's 1 s idle gap, so the streak is one inferred session).
   35% of bursts write.  50k rows span about two and a half hours. *)
let write_csv ~seed ~rows ~bad path =
  let g = Prng.make seed in
  let weights = Array.init csv_hosts (fun i -> 1.0 /. float_of_int (i + 1)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let pick_host () =
    let x = Prng.float g *. total in
    let rec go i acc =
      let acc = acc +. weights.(i) in
      if x < acc || i = csv_hosts - 1 then i else go (i + 1) acc
    in
    go 0 0.0
  in
  let events = Array.make rows (0.0, 0, 0, false, 0, 0) in
  let last = Array.make (csv_hosts * csv_disks) (-1) in
  let n = ref 0 and t = ref 0.0 in
  while !n < rows do
    t := !t +. Prng.exponential g 4.0;
    let host = pick_host () and disk = Prng.below g csv_disks in
    let streak = 1 + int_of_float (Prng.exponential g 24.0) in
    let write = Prng.float g < 0.35 in
    let block = 4096 in
    let file = (host * csv_disks) + disk in
    let offset =
      ref
        (if last.(file) >= 0 && Prng.float g < revisit then last.(file)
         else block * Prng.below g (csv_extent / block))
    in
    last.(file) <- !offset;
    let at = ref !t in
    for _ = 1 to streak do
      if !n < rows then begin
        let len = block * (1 + Prng.below g 16) in
        if !offset + len > csv_extent then offset := 0;
        events.(!n) <- (!at, host, disk, write, !offset, len);
        incr n;
        offset := !offset + len;
        at := !at +. Prng.exponential g 0.02
      end
    done
  done;
  Array.stable_sort (fun (a, _, _, _, _, _) (b, _, _, _, _, _) -> Float.compare a b) events;
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "Timestamp,Hostname,DiskNumber,Type,Offset,Size\n";
      Array.iter
        (fun (time, host, disk, write, offset, len) ->
          Printf.fprintf oc "%.6f,host%02d,%d,%s,%d,%d\n" time host disk
            (if write then "Write" else "Read")
            offset len)
        events;
      for i = 1 to bad do
        Printf.fprintf oc "%d.5,host00,0,Erase,not-an-offset,%d\n" i i
      done)

(* -- workloads ---------------------------------------------------------------- *)

let common_checks () =
  [
    ( "read_hits + read_misses = read_lookups",
      counter "sim.cache.read_hits" + counter "sim.cache.read_misses"
      = counter "sim.cache.read_lookups" );
    ("trace.corruption.detected = 0", counter "trace.corruption.detected" = 0);
    ("trace.io.giveups = 0", counter "trace.io.giveups" = 0);
  ]

let tables_checks rendered records =
  [
    ("16 tables rendered", List.length rendered = 16);
    ("trace records > 0", records > 0);
  ]

(* paper: the canonical reproduction on one core, i.e. what
   [DFS_JOBS=1 dfs_repro all --scale 0.05] computes. *)
let paper sz =
  let setup () = () in
  let measure () =
    let ds =
      timed "sim" (fun () -> Dataset.generate ~scale:sz.preset_scale ~jobs:1 ())
    in
    fused_all ds;
    let rendered = keep_renders (render_seq ds) in
    let records = total_records ds in
    fun () ->
      {
        ops = records;
        rejected = 0;
        records;
        outputs = [ ("tables_md5", Dfs_obs.Json.String (tables_md5 rendered)) ];
        checks = tables_checks rendered records;
        extra = [];
      }
  in
  (setup, measure)

(* The cluster seed of scale's rep [k]: SplitMix64 of the run's seed
   and [k], kept to 30 bits. *)
let cluster_seed ~seed k =
  let g = Prng.make ((seed * 1_000_003) + k) in
  Int64.to_int (Prng.bits g) land 0x3FFF_FFFF

(* scale: one partitioned PDES run.  One worker executes the four
   partitions: on two vCPUs a two-worker team spends most of its time
   parked at the 45k window barriers, and how long depends on how the
   host schedules the vCPUs (6.5-10.5 s for one seed, against 4.9-5.4 s
   on one worker).

   Rep [k] simulates the cluster of [cluster_seed ~seed k], so the reps
   of a run go through different clusters drawn from the seed.  One
   cluster's cost depends on its seed: the same hour took 29% longer on
   one seed than on another, with 40% more RPCs.  The median over a
   run's clusters depends on the seed much less. *)
let scale sz ~seed =
  let k = ref 0 in
  let setup () =
    {
      Dfs_workload.Sharded.default_config with
      Dfs_workload.Sharded.n_clients = sz.clients;
      n_servers = sz.servers;
      duration = sz.sim_seconds;
      partitions = None;
      chunk_records = None;
      spill_dir = None;
    }
  in
  let measure cfg =
    let rep = !k in
    incr k;
    let cfg = { cfg with Dfs_workload.Sharded.seed = cluster_seed ~seed rep } in
    let r = timed "sim" (fun () -> Dfs_workload.Sharded.run ~workers:1 cfg) in
    fun () ->
      let records = Sink.length r.merged in
      let digest = Dfs_workload.Sharded.digest r.merged in
      let partitions = r.partitions and workers = r.workers in
      Dfs_workload.Sharded.release r;
      {
        ops = records;
        rejected = 0;
        records;
        outputs =
          [
            ( Printf.sprintf "scale_digest.%d" rep,
              Dfs_obs.Json.String (Printf.sprintf "%08x" digest) );
          ];
        checks =
          [
            ("trace records > 0", records > 0);
            ("partitions >= 2", partitions >= 2);
            ("one worker", workers = 1);
            ("window barriers > 0", r.barriers > 0);
            ("cross-partition messages > 0", r.remote_msgs > 0);
          ];
        extra = [];
      }
  in
  (setup, measure)

(* replay: a foreign block trace through ingest, the columnar writer,
   the replay driver and every experiment. *)
let replay sz ~seed ~dir =
  let csv = Filename.concat dir "input.csv" in
  let setup () = write_csv ~seed ~rows:sz.csv_rows ~bad:!bad_rows csv in
  let measure () =
    let records, istats =
      timed "ingest" (fun () ->
          match
            Dfs_ingest.Import.of_csv_file ~on_corruption:Dfs_trace.Corruption.Salvage csv
          with
          | Ok x -> x
          | Error e -> failwith ("import: " ^ e))
    in
    let trace = Filename.concat dir "imported.trace" in
    timed "trace.write" (fun () ->
        Dfs_trace.Writer.with_file ~format:Dfs_trace.Writer.Columnar trace (fun w ->
            List.iter (Dfs_trace.Writer.write w) records));
    let ds, rstats =
      timed "replay" (fun () ->
          match Dataset.of_replay ~jobs:1 trace with
          | Ok x -> x
          | Error e -> failwith ("replay: " ^ e))
    in
    fused_all ds;
    let rendered = keep_renders (render_seq ds) in
    fun () ->
      let run = List.hd ds.runs in
      let replayed = Sink.length run.trace in
      let crc = Dfs_workload.Sharded.digest run.trace in
      let rows = sz.csv_rows + !bad_rows in
      {
        ops = rows;
        rejected = istats.bad_rows + rstats.skipped;
        records = replayed;
        outputs =
          [
            ("replay_applied", Dfs_obs.Json.Int rstats.applied);
            ("replay_skipped", Dfs_obs.Json.Int rstats.skipped);
            ("replay_crc32c", Dfs_obs.Json.String (Printf.sprintf "%08x" crc));
          ];
        checks =
          tables_checks rendered replayed
          @ [
              ("rows parsed = rows generated", istats.rows + istats.bad_rows = rows);
              ("applied + skipped = input records",
                rstats.applied + rstats.skipped = rstats.records);
              ("replayed input = imported records", rstats.records = istats.records);
              ("bad_rows = 0", istats.bad_rows = 0);
              ("skipped = 0", rstats.skipped = 0);
            ];
        extra =
          [
            ("ingest.rows", float_of_int istats.rows);
            ("ingest.records", float_of_int istats.records);
            ("ingest.bad_rows", float_of_int istats.bad_rows);
            ("replay.applied", float_of_int rstats.applied);
            ("replay.skipped", float_of_int rstats.skipped);
            ("replay.synthesized_opens", float_of_int rstats.synthesized_opens);
            ("replay.horizon_s", rstats.horizon);
          ];
      }
  in
  (setup, measure)

(* reanalyze: the analyses alone, over traces spilled to checksummed
   columnar segments by the simulation in set-up.  One domain, like the
   other workloads: with both vCPUs busy the host steals up to half of
   one, and a two-domain measured part swung from 2.6 to 5.1 s between
   runs (its CPU time stayed within 10%).

   Every rep does the same work on the one dataset: it drops the
   verified-file cache, so the segments are mapped and checksummed
   again, and runs the fused pass again.  The first rep runs it through
   [Dataset.fused], which fills the memo the experiments read; later
   reps call the pass itself. *)
let reanalyze sz ~dir =
  let spill = Filename.concat dir "spill" in
  let analysed = ref false in
  let setup () =
    Unix.mkdir spill 0o755;
    timed "sim" (fun () ->
        Dataset.generate ~scale:sz.preset_scale ~jobs:1 ~spill_dir:spill ())
  in
  let measure ds =
    Dfs_trace.Segment.cache_clear ();
    if !analysed then fused_again ds else fused_all ds;
    analysed := true;
    let pool = Dfs_util.Pool.create ~jobs:1 () in
    let rendered = keep_renders (render_pool pool ds) in
    let scorecard = timed "analysis.claims" (fun () -> Dfs_core.Claims.scorecard ds) in
    fun () ->
      (* Outside the measured part: a read-only pass over every spilled
         segment, timed in traced children only.  The verified-file
         cache is dropped first, so the pass maps and checksums again. *)
      if !traced then begin
        Dfs_trace.Segment.cache_clear ();
        timed "trace.read" (fun () ->
            List.iter
              (fun r ->
                Seq.iter (fun b -> ignore (Sys.opaque_identity b)) (Dataset.trace_seq r))
              ds.runs)
      end;
      let records = total_records ds in
      let spilled =
        List.fold_left
          (fun acc (r : Dataset.run) -> acc + Sink.spilled_count r.trace)
          0 ds.runs
      in
      {
        ops = records;
        rejected = 0;
        records;
        outputs = [ ("tables_md5", Dfs_obs.Json.String (tables_md5 rendered)) ];
        checks =
          tables_checks rendered records
          @ [
              ("trace chunks spilled", spilled > 0);
              ("scorecard rendered", String.length scorecard > 0);
            ];
        extra = [];
      }
  in
  (setup, measure)

(* -- per-layer report ------------------------------------------------------------ *)

let layer_of_span (s : Profiler.span) =
  let starts p = String.starts_with ~prefix:p s.name in
  if starts "bench." then
    match String.split_on_char '.' s.name with _ :: layer :: _ -> layer | _ -> "other"
  else if s.name = "trace.kway_merge" || s.name = "scale.merge" then "trace"
  else if s.name = "pool.task" then "pool"
  (* The engine runs inside the PDES executor's span, so its self time
     is simulation; the executor's own cost shows in the pdes.* counts. *)
  else if starts "sim." || s.name = "dataset.generate" || s.name = "pdes.run" then "sim"
  else if starts "fused." || s.cat = "experiment" then "analysis"
  else "other"

let self_layers = [ "sim"; "trace"; "ingest"; "replay"; "analysis"; "pool"; "other" ]

(* Self time of a span = its duration minus its direct children's, per
   domain; parents are recovered from the recorded nesting depth. *)
let self_times spans =
  let self = Hashtbl.create 8 in
  let add layer d =
    let prev = Option.value ~default:0.0 (Hashtbl.find_opt self layer) in
    Hashtbl.replace self layer (prev +. d)
  in
  let by_domain = Hashtbl.create 4 in
  List.iter
    (fun (s : Profiler.span) ->
      Hashtbl.replace by_domain s.domain
        (s :: Option.value ~default:[] (Hashtbl.find_opt by_domain s.domain)))
    spans;
  Hashtbl.iter
    (fun _ domain_spans ->
      let ordered =
        List.stable_sort
          (fun (a : Profiler.span) (b : Profiler.span) ->
            match Float.compare a.t0 b.t0 with 0 -> compare a.depth b.depth | c -> c)
          (List.rev domain_spans)
      in
      let stack = ref [] in
      List.iter
        (fun (s : Profiler.span) ->
          let rec pop () =
            match !stack with
            | (top : Profiler.span) :: rest when top.depth >= s.depth ->
              stack := rest;
              pop ()
            | _ -> ()
          in
          pop ();
          (match !stack with
          | parent :: _ -> add (layer_of_span parent) (-.s.dur)
          | [] -> ());
          add (layer_of_span s) s.dur;
          stack := s :: !stack)
        ordered)
    by_domain;
  List.map
    (fun l -> (l, Float.max 0.0 (Option.value ~default:0.0 (Hashtbl.find_opt self l))))
    self_layers

let layer_metrics ~(o : outcome) ~measure_t0 ~measure_wall =
  let spans = Profiler.spans () in
  let main = (Domain.self () :> int) in
  (* Share of the measured part inside the benchmark's own top-level
     spans.  Span [t0] is relative to [Profiler.enable]; so is
     [measure_t0]. *)
  let coverage =
    List.fold_left
      (fun acc (s : Profiler.span) ->
        if
          s.domain = main && s.depth = 0 && s.cat = "bench" && s.t0 >= measure_t0
          && s.t0 +. s.dur <= measure_t0 +. measure_wall +. 1e-3
        then acc +. s.dur
        else acc)
      0.0 spans
  in
  let span_total name =
    List.fold_left
      (fun acc (s : Profiler.span) -> if s.name = name then acc +. s.dur else acc)
      0.0 spans
  in
  let f = float_of_int in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let replay_engine = gauge "phase.sim.replay.wall_s" in
  let sim_wall = (call "sim").wall +. replay_engine in
  let events = f (counter "sim.engine.events") in
  let shard_sum kind =
    let rec go i acc =
      match Metrics.find (Printf.sprintf "sim.shard%d.%s" i kind) with
      | Some (Metrics.Gauge g) -> go (i + 1) (acc +. Metrics.gauge_value g)
      | Some _ | None -> acc
    in
    go 0 0.0
  in
  let busy = shard_sum "busy_s" and stall = shard_sum "stall_s" in
  let barriers = f (counter "sim.barrier.count") in
  let lookups = f (counter "sim.cache.read_lookups") in
  let records = f o.records in
  let fused_s = (call "analysis.fused").wall in
  let gc = Gc.quick_stat () in
  let mib words = words *. 8.0 /. 1048576.0 in
  let extra name = Option.value ~default:0.0 (List.assoc_opt name o.extra) in
  let ingest_s = (call "ingest").wall in
  let rows = extra "ingest.rows" in
  let self = self_times spans in
  [
    ("sim.wall_s", sim_wall);
    ("sim.events", events);
    ("sim.ns_per_event", ratio (sim_wall *. 1e9) events);
    ( "sim.alloc_words_per_event",
      ratio ((call "sim").minor_words +. (call "replay").minor_words) events );
    ( "sim.promoted_words_per_event",
      ratio ((call "sim").promoted_words +. (call "replay").promoted_words) events );
    ("sim.client_ops", f (counter "sim.client.ops"));
    ("sim.rpcs", f (counter "sim.net.rpcs"));
    ("sim.disk_ops", f (counter "sim.disk.reads" + counter "sim.disk.writes"));
  ]
  @ List.init 8 (fun i ->
        ( Printf.sprintf "sim.preset_s.trace%d" (i + 1),
          gauge (Printf.sprintf "phase.sim.trace%d.wall_s" (i + 1)) ))
  @ [
      ("pdes.barriers", barriers);
      ("pdes.remote_msgs", f (counter "sim.pdes.messages"));
      ("pdes.busy_s", busy);
      ("pdes.stall_s", stall);
      ("pdes.stall_share", ratio stall (busy +. stall));
      ("pdes.stall_us_per_barrier", ratio (stall *. 1e6) barriers);
      ("cache.lookups", lookups);
      ("cache.hit_ratio", ratio (f (counter "sim.cache.read_hits")) lookups);
      ("cache.evictions_per_lookup", ratio (f (counter "sim.cache.evictions")) lookups);
      ("cache.writebacks", f (counter "sim.cache.writebacks"));
      ("server.sharing_opens", f (counter "sim.server.sharing_opens"));
      ("server.cache_disables", f (counter "sim.server.cache_disables"));
      ("trace.records", records);
      ("trace.merge_s", span_total "trace.kway_merge");
      ( "trace.read_s",
        (call "trace.read").wall
        +. if replay_engine > 0.0 then (call "replay").wall -. replay_engine else 0.0 );
      ("trace.mapped_bytes", f (counter "trace.mapped_bytes"));
      ("trace.verified_bytes", f (counter "trace.checksum.verified_bytes"));
      ("trace.spilled_bytes", f (counter "trace.sink.spilled_bytes"));
      ("trace.chunks_sealed", f (counter "trace.sink.chunks_sealed"));
      ("ingest.wall_s", ingest_s);
      ("ingest.rows", rows);
      ("ingest.records", extra "ingest.records");
      ("ingest.ns_per_row", ratio (ingest_s *. 1e9) rows);
      ("ingest.bad_rows", extra "ingest.bad_rows");
      ("replay.wall_s", replay_engine);
      ("replay.applied", extra "replay.applied");
      ("replay.skipped", extra "replay.skipped");
      ("replay.synthesized_opens", extra "replay.synthesized_opens");
      ("replay.horizon_s", extra "replay.horizon_s");
      ("analysis.fused_s", fused_s);
      ("analysis.records_per_s", ratio records fused_s);
      ( "analysis.alloc_words_per_record",
        ratio (call "analysis.fused").minor_words records );
    ]
  @ List.map
      (fun id ->
        ( "analysis.experiment_s." ^ id,
          Option.value ~default:0.0 (List.assoc_opt id !experiment_s) ))
      Experiment.ids
  @ [
      ("analysis.claims_s", (call "analysis.claims").wall);
      ("pool.utilization", ratio !pool_busy (!pool_busy +. !pool_idle));
      ("pool.busy_s", !pool_busy);
      ("pool.idle_s", !pool_idle);
      ("gc.minor_collections", f gc.minor_collections);
      ("gc.major_collections", f gc.major_collections);
      ("gc.top_heap_mb", mib (f gc.top_heap_words));
      ("gc.promoted_mb", mib gc.promoted_words);
      ("tracing.coverage", ratio coverage measure_wall);
    ]
  @ List.map (fun (l, s) -> ("self_s." ^ l, s)) self

(* -- host speed ------------------------------------------------------------ *)

(* A fixed piece of work owned by the benchmark, timed between the reps
   to read how fast the host runs.  It does what the program's layers do
   most, in two halves: short-lived allocation, a small hash table,
   number formatting and sorts, all in cache; then lookups, inserts and
   evictions in a block table far larger than the cache, with skewed
   block popularity, over a heap the major collector has to mark. *)
module Reference = struct
  type entry = { mutable stamp : int }

  type blocks = {
    table : (int, entry) Hashtbl.t;
    ring : int array;  (** resident blocks, oldest first from [next] *)
    mutable next : int;
    mutable clock : int;
    g : Prng.t;
  }

  let blocks = 1 lsl 22
  let capacity = 600_000

  let in_cache () =
    let g = Prng.make 1 in
    let n = 40_000 in
    let small = Hashtbl.create 16 in
    let hits = ref 0 in
    for i = 0 to n - 1 do
      Hashtbl.replace small (Prng.below g (4 * n)) (i, Prng.float g);
      match Hashtbl.find_opt small (Prng.below g (4 * n)) with
      | Some (j, _) -> hits := !hits + j
      | None -> ()
    done;
    let names = Array.init n (fun i -> Printf.sprintf "%d.%06d" (Prng.below g 100_000) i) in
    Array.sort compare names;
    let pairs = List.init n (fun i -> (i, Prng.float g)) in
    let pairs = List.sort (fun (_, x) (_, y) -> Float.compare x y) pairs in
    ignore (Sys.opaque_identity (!hits, names, pairs))

  let in_memory t ops =
    for _ = 1 to ops do
      t.clock <- t.clock + 1;
      let b = Prng.below t.g (1 + Prng.below t.g blocks) in
      match Hashtbl.find_opt t.table b with
      | Some e -> e.stamp <- t.clock
      | None ->
        Hashtbl.remove t.table t.ring.(t.next);
        t.ring.(t.next) <- b;
        t.next <- (t.next + 1) mod capacity;
        Hashtbl.replace t.table b { stamp = t.clock }
    done

  (* A full block table, holding the most popular blocks, so that every
     timing finds it full. *)
  let create () =
    let table = Hashtbl.create capacity in
    for b = 0 to capacity - 1 do
      Hashtbl.replace table b { stamp = 0 }
    done;
    in_cache ();
    { table; ring = Array.init capacity Fun.id; next = 0; clock = 0; g = Prng.make 3 }

  let time t =
    Gc.full_major ();
    let t0 = now () in
    in_cache ();
    in_cache ();
    in_memory t 200_000;
    now () -. t0
end

(* The reference runs in a helper process of its own, started by the
   measuring child, so that neither the program's heap nor its state
   can change how long the reference takes.  The helper waits on its
   standard input; each line asks for one timing, printed back in host
   seconds.  It ends at end of input. *)
let reference_helper () =
  let t = Reference.create () in
  let rec serve () =
    match In_channel.input_line stdin with
    | None -> ()
    | Some _ ->
      Printf.printf "%.9f\n%!" (Reference.time t);
      serve ()
  in
  serve ()

let with_reference f =
  let exe = Sys.executable_name in
  let ((out, into) as helper) = Unix.open_process_args exe [| exe; "--reference-helper" |] in
  let reference_s () =
    output_string into "time\n";
    flush into;
    float_of_string (input_line out)
  in
  Fun.protect ~finally:(fun () -> ignore (Unix.close_process helper)) (fun () -> f reference_s)

(* -- main ------------------------------------------------------------------ *)

let peak_rss_mb () =
  let status = In_channel.with_open_text "/proc/self/status" In_channel.input_all in
  let line =
    List.find (String.starts_with ~prefix:"VmHWM:") (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

(* The program's defaults are what is measured: no GC settings, and no
   DFS_* variable beyond the three run.py pins. *)
let check_env () =
  let pinned = [ "DFS_LOG"; "DFS_JOBS"; "DFS_SIM_SHARDS" ] in
  Array.iter
    (fun kv ->
      let name =
        match String.index_opt kv '=' with Some i -> String.sub kv 0 i | None -> kv
      in
      if
        name = "OCAMLRUNPARAM" || name = "CAMLRUNPARAM"
        || (String.starts_with ~prefix:"DFS_" name && not (List.mem name pinned))
      then failwith (Printf.sprintf "%s is set; run through perfbench/run.py" name))
    (Unix.environment ())

type rep = {
  wall_s : float;
  cpu_s : float;  (** process CPU time of the rep *)
  outcome : outcome;
}

type result = {
  setup_s : float;
  measure_t0 : float;  (** profiler clock at the start of the first rep *)
  reps : rep list;  (** in the order run; empty for a set-up-only child *)
  reference : float list;  (** host seconds of each reference timing *)
  peak_rss_mb : float;  (** VmHWM after set-up and the first rep *)
}

let cpu_time () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

(* Share of a rep's time spent on reference timings after it. *)
let reference_share = 0.15

(* Set up once, then repeat the measured part: once, and then while one
   more rep as long as the last one would end before [--until], less the
   time [--reserve-setups] more set-ups would take when that is a tenth
   of the run at most.  The reference is timed once before the first
   rep, and after every rep until its timings add up to
   [reference_share] of the rep.  A full major collection before each
   rep, outside its time, frees what the previous rep left, so every rep
   starts from a heap holding only the set-up.  The peak RSS is read
   after the first rep, as one run of the program would reach it: later
   reps fragment the heap, so the peak would grow with the rep count. *)
let drive (setup, measure) =
  let state = setup () in
  let setup_s = now () -. !t_spawn in
  let reserve = float_of_int !reserve_setups *. setup_s in
  if reserve <= 0.1 *. (!until -. !t_spawn) then until := !until -. reserve;
  let measure_t0 = ref 0.0 and peak = ref 0.0 and reference = ref [] in
  let rec go reference_s n acc =
    Gc.full_major ();
    if n = 0 then measure_t0 := Profiler.elapsed ();
    let t0 = now () and cpu0 = cpu_time () in
    let finish = measure state in
    let wall_s = now () -. t0 in
    let cpu_s = cpu_time () -. cpu0 in
    if n = 0 then peak := peak_rss_mb ();
    let acc = { wall_s; cpu_s; outcome = finish () } :: acc in
    let rec sample spent =
      let r = reference_s () in
      reference := r :: !reference;
      if spent +. r < reference_share *. wall_s then sample (spent +. r)
    in
    sample 0.0;
    if now () +. wall_s <= !until then go reference_s (n + 1) acc
    else List.rev acc
  in
  let reps =
    if !phase = "setup" then []
    else
      with_reference (fun reference_s ->
          reference := [ reference_s () ];
          go reference_s 0 [])
  in
  { setup_s; measure_t0 = !measure_t0; reps; reference = List.rev !reference; peak_rss_mb = !peak }

let run_workload () =
  let sz =
    match !size with
    | "full" -> full
    | "tiny" -> tiny
    | s -> failwith ("unknown size " ^ s)
  in
  let dir = !work_dir in
  if dir = "" || not (Sys.file_exists dir) then failwith "--work-dir must exist";
  match !workload with
  | "paper" -> drive (paper sz)
  | "scale" -> drive (scale sz ~seed:!seed)
  | "replay" -> drive (replay sz ~seed:!seed ~dir)
  | "reanalyze" -> drive (reanalyze sz ~dir)
  | w -> failwith ("unknown workload " ^ w)

let () =
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME [--seed N] [--size full|tiny] [--traced]";
  if !helper then begin
    reference_helper ();
    exit 0
  end;
  if Float.is_nan !t_spawn then t_spawn := now ();
  let module J = Dfs_obs.Json in
  let line =
    match
      check_env ();
      if !traced then Profiler.enable ();
      run_workload ()
    with
    | { reps = []; setup_s; _ } ->
      J.Obj [ ("phase", J.String "setup"); ("setup_s", J.Float setup_s) ]
    | { reps = first :: _ as reps; setup_s; measure_t0; reference; peak_rss_mb } ->
      (* The reps' outputs together; an output two reps both give must
         be the same. *)
      let outputs =
        List.fold_left
          (fun acc r ->
            acc @ List.filter (fun (key, _) -> not (List.mem_assoc key acc)) r.outcome.outputs)
          [] reps
      in
      let agree r =
        List.for_all (fun (key, v) -> List.assoc key outputs = v) r.outcome.outputs
      in
      let failed =
        List.sort_uniq compare
          (List.concat_map
             (fun r ->
               List.filter_map
                 (fun (name, ok) -> if ok then None else Some name)
                 (common_checks () @ ("outputs agree between reps", agree r) :: r.outcome.checks))
             reps)
      in
      let sum f = List.fold_left (fun acc r -> acc + f r.outcome) 0 reps in
      let ops = max 1 (sum (fun o -> o.ops)) in
      let layers =
        if !traced then begin
          if !profile_out <> "" then
            Out_channel.with_open_text !profile_out Dfs_obs.Chrome_export.write;
          [
            ( "layers",
              J.Obj
                (List.map
                   (fun (k, v) -> (k, J.Float v))
                   (layer_metrics ~o:first.outcome ~measure_t0 ~measure_wall:first.wall_s))
            );
          ]
        end
        else []
      in
      J.Obj
        ([
           ("phase", J.String "measure");
           ("setup_s", J.Float setup_s);
           ( "reps",
             J.List
               (List.map
                  (fun r ->
                    J.Obj [ ("wall_s", J.Float r.wall_s); ("cpu_s", J.Float r.cpu_s) ])
                  reps) );
           ("reference_s", J.List (List.map (fun r -> J.Float r) reference));
           ("peak_rss_mb", J.Float peak_rss_mb);
           ("ops", J.Int ops);
           ("ops_failed", J.Int (if failed = [] then sum (fun o -> o.rejected) else ops));
           ("checks_failed", J.List (List.map (fun s -> J.String s) failed));
           ("outputs", J.Obj outputs);
         ]
        @ layers)
    | exception e ->
      J.Obj
        [
          ("phase", J.String !phase);
          ("error", J.String (Printexc.to_string e));
          ("ops", J.Int 1);
          ("ops_failed", J.Int 1);
        ]
  in
  print_endline (J.to_string line);
  if Option.is_some (J.member "error" line) then exit 1
