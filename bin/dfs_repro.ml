(* Command-line driver for the reproduction: list, run and inspect the
   paper's experiments, generate trace files, re-analyze them, and
   surface the simulator's own telemetry (metrics + event traces). *)

open Cmdliner

let scale_arg =
  let doc =
    "Trace length as a fraction of 24 hours (1.0 = full day). Defaults to \
     0.05."
  in
  Arg.(value & opt (some float) None & info [ "scale" ] ~docv:"FRACTION" ~doc)

let jobs_arg =
  let doc =
    "Number of domains for the parallel phases: simulating the trace \
     presets, the fused analysis of each trace, and executing the \
     $(b,scale) run's lookahead windows. Defaults to DFS_JOBS, else the \
     machine's recommended domain count. Results are byte-identical \
     whatever the value."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let traces_arg =
  let doc = "Comma-separated trace numbers (1-8) to simulate." in
  Arg.(
    value
    & opt (list int) [ 1; 2; 3; 4; 5; 6; 7; 8 ]
    & info [ "traces" ] ~docv:"N,..." ~doc)

(* -- fault injection ------------------------------------------------------- *)

let faults_arg =
  let doc =
    "Fault-injection profile: $(b,none) (default), $(b,light) (MTTF 6 h), or \
     $(b,heavy) (crash-heavy, MTTF 10 min). Server crashes destroy \
     delayed-write data inside the 30-second window; reboots trigger \
     Sprite-style stateful recovery."
  in
  Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"PROFILE" ~doc)

let fault_seed_arg =
  let doc =
    "Seed for the fault schedule (independent of the workload seed, so the \
     same workload can be replayed under different failure histories)."
  in
  Arg.(value & opt (some int) None & info [ "fault-seed" ] ~docv:"N" ~doc)

(* -- trace pipeline memory bounds ------------------------------------------ *)

let chunk_records_arg =
  let doc =
    "Records per sealed trace chunk in the streaming trace pipeline. \
     Defaults to 32768. Results are identical whatever the value."
  in
  Arg.(value & opt (some int) None & info [ "chunk-records" ] ~docv:"N" ~doc)

let spill_dir_arg =
  let doc =
    "Spill sealed trace chunks to this directory as columnar trace \
     segments instead of keeping them in memory, bounding peak heap. \
     Defaults to in-memory chunks. Results are identical either way."
  in
  Arg.(value & opt (some string) None & info [ "spill-dir" ] ~docv:"DIR" ~doc)

(* -- numeric flag ranges ----------------------------------------------------- *)

(* Checked before anything is built: an out-of-range value is one [dfs]
   line naming the flag and its valid range, and exit 1 — never an
   uncaught exception from inside the simulator. *)
let check flag ~valid ok value =
  if not ok then begin
    Dfs_obs.Log.error "%s %s is out of range (valid: %s)" flag value valid;
    exit 1
  end

let check_scale =
  Option.iter (fun s ->
      check "--scale" ~valid:"0 < FRACTION <= 1" (s > 0.0 && s <= 1.0)
        (Printf.sprintf "%g" s))

let check_trace flag n =
  check flag ~valid:"1-8" (n >= 1 && n <= 8) (string_of_int n)

let check_positive flag n = check flag ~valid:">= 1" (n >= 1) (string_of_int n)

let check_dataset_flags scale traces chunk_records =
  check_scale scale;
  check "--traces" ~valid:"1-8, at least one" (traces <> []) "''";
  List.iter (check_trace "--traces") traces;
  Option.iter (check_positive "--chunk-records") chunk_records

let fault_profile faults fault_seed =
  match faults with
  | None -> None
  | Some name ->
    (match Dfs_fault.Profile.of_name name with
    | Some p ->
      let p =
        match fault_seed with
        | Some s -> Dfs_fault.Profile.with_seed p s
        | None -> p
      in
      if Dfs_fault.Profile.is_none p then None else Some p
    | None ->
      Dfs_obs.Log.error "unknown fault profile %S (valid: none, light, heavy)"
        name;
      exit 1)

(* The recovery-stats table, printed after any dataset command that ran
   with faults enabled. *)
let print_recovery_stats (ds : Dfs_core.Dataset.t) =
  let named =
    List.filter_map
      (fun (r : Dfs_core.Dataset.run) ->
        Option.map (fun inj -> (r.preset.name, inj)) (Dfs_sim.Cluster.faults r.cluster))
      ds.runs
  in
  if named <> [] then
    Format.printf "=== recovery: server crashes & delayed-write loss ===@.%a@."
      Dfs_analysis.Recovery_stats.pp
      (Dfs_analysis.Recovery_stats.analyze named)

(* -- observability plumbing ------------------------------------------------ *)

let verbosity_term =
  let verbose =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ]
          ~doc:"Verbose progress output (the DFS_LOG variable overrides).")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "q"; "quiet" ]
          ~doc:"Print only errors (the DFS_LOG variable overrides).")
  in
  let apply verbose quiet =
    if verbose then Dfs_obs.Log.set_level Dfs_obs.Log.Verbose
    else if quiet then Dfs_obs.Log.set_level Dfs_obs.Log.Quiet
  in
  Term.(const apply $ verbose $ quiet)

let metrics_out_arg =
  let doc =
    "Write a JSON snapshot of the simulator metrics registry (counters, \
     gauges, histogram quantiles) to $(docv) after the command finishes."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let trace_out_arg =
  let doc =
    "Record simulated-time spans (RPCs, cache fills/writebacks/evictions, \
     disk I/O, consistency actions, faults, migrations) and write them to \
     $(docv) as Chrome trace-event JSON: one process per simulation, one \
     track per category. Each simulation keeps its first 100000 spans; the \
     rest are counted in the obs.trace.dropped metric. The file is the same \
     bytes whatever the worker count is."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let profile_out_arg =
  let doc =
    "Enable the wall-clock profiler and write the run's hierarchical spans \
     (dataset generation, k-way merge, fused analysis, experiments, pool \
     tasks; one track per domain, GC deltas attached) to $(docv) as Chrome \
     trace-event JSON, together with the simulated-time spans when \
     $(b,--trace-out) records them — open it at ui.perfetto.dev."
  in
  Arg.(value & opt (some string) None & info [ "profile-out" ] ~docv:"FILE" ~doc)

let with_out path f =
  match open_out path with
  | oc -> Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> f oc)
  | exception Sys_error e ->
    Dfs_obs.Log.error "%s" e;
    exit 1

(* Runs [f] with the profiler's clocks on when their output files were
   requested, then writes the requested observability artifacts. *)
let with_obs ~metrics_out ~trace_out ?(profile_out = None) f =
  let module P = Dfs_obs.Profiler in
  if Option.is_some trace_out then P.enable_sim ();
  if Option.is_some profile_out then P.enable ();
  let result = f () in
  Option.iter
    (fun path ->
      (* peak-heap telemetry in the snapshot, so CI can gate the
         bounded-memory claim on metrics alone *)
      let gc = Gc.quick_stat () in
      Dfs_obs.Metrics.set
        (Dfs_obs.Metrics.gauge "gc.top_heap_words")
        (float_of_int gc.Gc.top_heap_words);
      Dfs_obs.Metrics.set
        (Dfs_obs.Metrics.gauge "gc.major_collections")
        (float_of_int gc.Gc.major_collections);
      with_out path (fun oc ->
          output_string oc
            (Dfs_obs.Json.to_pretty_string (Dfs_obs.Metrics.to_json ())));
      Dfs_obs.Log.info "wrote metrics snapshot to %s" path)
    metrics_out;
  let sim_kept () = P.added Sim - P.dropped Sim in
  Option.iter
    (fun path ->
      with_out path (fun oc -> Dfs_obs.Chrome_export.write ~clock:Sim oc);
      Dfs_obs.Log.info
        "wrote %d sim spans to %s (%d more past a simulation's first %d \
         counted in obs.trace.dropped)"
        (sim_kept ()) path (P.dropped Sim) P.sim_capacity)
    trace_out;
  Option.iter
    (fun path ->
      with_out path (fun oc -> Dfs_obs.Chrome_export.write oc);
      Dfs_obs.Log.info
        "wrote Chrome trace to %s (%d wall spans, %d sim spans; open at \
         ui.perfetto.dev)"
        path
        (P.added Wall - P.dropped Wall)
        (sim_kept ()))
    profile_out;
  result

let replay_arg =
  let doc =
    "Build the dataset by replaying this canonical trace file (e.g. the \
     output of $(b,import)) through a live cluster instead of simulating \
     the synthetic presets; $(b,--scale), $(b,--traces) and $(b,--faults) \
     are ignored. Every table and figure then describes the foreign \
     workload."
  in
  Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE" ~doc)

(* The flags and prelude of the table/figure commands ([experiment],
   [all], [facts]).  Evaluating the term checks the flags, before
   anything is built; it yields a runner that builds the dataset
   (synthetic presets by default, or a replayed foreign trace under
   [--replay]) with the requested observability on, and hands it over. *)
let dataset_term =
  let prepare () scale traces jobs faults fault_seed chunk_records spill_dir
      replay metrics_out trace_out profile_out =
    check_dataset_flags scale traces chunk_records;
    fun f ->
      with_obs ~metrics_out ~trace_out ~profile_out (fun () ->
          let faults = fault_profile faults fault_seed in
          f
            (match replay with
            | None ->
              Dfs_core.Dataset.generate ?scale ~traces ?jobs ?faults
                ?chunk_records ?spill_dir ()
            | Some path -> (
              match Dfs_core.Dataset.of_replay ?jobs path with
              | Ok (ds, stats) ->
                Dfs_obs.Log.info
                  "replayed %s: %d records, %d applied, %d skipped, %d \
                   clients, %d files"
                  path stats.Dfs_workload.Replay.records stats.applied
                  stats.skipped stats.clients stats.files;
                ds
              | Error e ->
                Dfs_obs.Log.error "%s" e;
                exit 2)))
  in
  Term.(
    const prepare $ verbosity_term $ scale_arg $ traces_arg $ jobs_arg
    $ faults_arg $ fault_seed_arg $ chunk_records_arg $ spill_dir_arg
    $ replay_arg $ metrics_out_arg $ trace_out_arg $ profile_out_arg)

(* -- list ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    List.iter
      (fun (e : Dfs_core.Experiment.t) ->
        Printf.printf "%-8s %s\n         %s\n" e.id e.title e.description)
      Dfs_core.Experiment.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List all reproducible tables and figures")
    Term.(const run $ const ())

(* -- experiment -------------------------------------------------------------- *)

let experiment_cmd =
  let ids_arg =
    let doc = "Experiment ids (table1..table12, fig1..fig4)." in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"ID" ~doc)
  in
  let run ids with_dataset =
    let unknown =
      List.filter (fun id -> Dfs_core.Experiment.find id = None) ids
    in
    if unknown <> [] then begin
      Dfs_obs.Log.error "unknown experiment(s): %s (valid: %s)"
        (String.concat ", " unknown)
        (String.concat ", " Dfs_core.Experiment.ids);
      exit 1
    end;
    with_dataset (fun ds ->
        List.iter
          (fun id ->
            match Dfs_core.Experiment.find id with
            | Some e ->
              Printf.printf "=== %s: %s ===\n%s\n" e.id e.title (e.run ds)
            | None -> ())
          ids;
        print_recovery_stats ds)
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Reproduce specific tables/figures")
    Term.(const run $ ids_arg $ dataset_term)

(* -- all ----------------------------------------------------------------------- *)

let all_cmd =
  let run with_dataset =
    with_dataset (fun ds ->
        List.iter
          (fun (e : Dfs_core.Experiment.t) ->
            Printf.printf "=== %s: %s ===\n%s\n" e.id e.title (e.run ds))
          Dfs_core.Experiment.all;
        print_recovery_stats ds)
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Reproduce every table and figure")
    Term.(const run $ dataset_term)

(* -- facts -------------------------------------------------------------------- *)

let facts_cmd =
  let markdown_arg =
    let doc = "Emit the scorecard as a markdown table (for EXPERIMENTS.md)." in
    Arg.(value & flag & info [ "markdown" ] ~doc)
  in
  let run markdown with_dataset =
    with_dataset (fun ds ->
        if markdown then print_string (Dfs_core.Claims.markdown ds)
        else begin
          print_string (Dfs_core.Claims.scorecard ds);
          print_recovery_stats ds
        end)
  in
  Cmd.v
    (Cmd.info "facts"
       ~doc:
         "Check the paper's headline findings (the prose claims) against           the simulation")
    Term.(const run $ markdown_arg $ dataset_term)

(* -- simulate ------------------------------------------------------------------- *)

let trace_n_arg =
  let doc = "Which of the eight trace presets to simulate." in
  Arg.(value & opt int 1 & info [ "trace" ] ~docv:"N" ~doc)

let scaled_preset n scale =
  Dfs_workload.Presets.scaled (Dfs_workload.Presets.trace n)
    ~factor:(Option.value scale ~default:Dfs_core.Dataset.default_scale)

let trace_format_arg =
  let doc =
    "Trace file format: $(b,text) (tab-separated, one record per line) or \
     $(b,columnar) (checksummed, aligned whole-column segments readable \
     zero-copy via mmap). Readers detect the format from the file header \
     either way."
  in
  Arg.(value & opt string "text" & info [ "trace-format" ] ~docv:"FORMAT" ~doc)

let parse_trace_format s =
  match Dfs_trace.Writer.format_of_string s with
  | Ok f -> f
  | Error e ->
    Dfs_obs.Log.error "%s" e;
    exit 1

let simulate_cmd =
  let out_arg =
    let doc = "Directory to write per-server trace files into." in
    Arg.(value & opt string "traces" & info [ "out" ] ~docv:"DIR" ~doc)
  in
  let run () n scale out format metrics_out trace_out profile_out =
    check_trace "--trace" n;
    check_scale scale;
    let format = parse_trace_format format in
    (* Before simulating, so an unusable DIR fails before any work. *)
    if not (Sys.file_exists out && Sys.is_directory out) then
      Sys.mkdir out 0o755;
    with_obs ~metrics_out ~trace_out ~profile_out (fun () ->
        let preset = scaled_preset n scale in
        Dfs_obs.Log.info "simulating %s (%.1f h)" preset.name
          (preset.duration /. 3600.0);
        let cluster, _driver = Dfs_workload.Presets.run preset in
        List.iteri
          (fun i chunks ->
            let path =
              Filename.concat out
                (Printf.sprintf "%s-server%d.trace" preset.name i)
            in
            Dfs_trace.Writer.with_file ~format path (fun w ->
                Dfs_trace.Sink.iter (Dfs_trace.Writer.write w) chunks);
            Printf.printf "wrote %s (%d records)\n" path
              (Dfs_trace.Sink.length chunks))
          (Dfs_sim.Cluster.server_chunks cluster))
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Simulate one trace preset and write per-server trace files")
    Term.(
      const run $ verbosity_term $ trace_n_arg $ scale_arg $ out_arg
      $ trace_format_arg $ metrics_out_arg $ trace_out_arg $ profile_out_arg)

(* -- analyze --------------------------------------------------------------------- *)

let on_corruption_arg =
  let doc =
    "What to do when a trace file is damaged: $(b,fail) (default) stop with \
     a one-line diagnostic, or $(b,salvage) keep each file's longest valid \
     prefix, count the loss in the trace.corruption.* counters, and \
     continue."
  in
  Arg.(
    value & opt string "fail" & info [ "on-corruption" ] ~docv:"POLICY" ~doc)

let parse_on_corruption s =
  match Dfs_trace.Corruption.of_string s with
  | Ok p -> p
  | Error e ->
    Dfs_obs.Log.error "%s" e;
    exit 1

let analyze_cmd =
  let files_arg =
    let doc = "Per-server trace files to merge and analyze." in
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc)
  in
  let run () files on_corruption metrics_out =
    let on_corruption = parse_on_corruption on_corruption in
    with_obs ~metrics_out ~trace_out:None (fun () ->
        let sources =
          List.map
            (fun path ->
              (* Corrupt, truncated or misaligned inputs are an exit-2
                 diagnostic naming file, offset and reason — never a raw
                 backtrace. *)
              match Dfs_trace.Reader.batch_of_file ~on_corruption path with
              | Ok batch -> Dfs_trace.Sink.of_batch batch
              | Error e ->
                Dfs_obs.Log.error "%s: %s" path e;
                exit 2
              | exception Failure e ->
                Dfs_obs.Log.error "%s: %s" path e;
                exit 2)
            files
        in
        let mbatch =
          Dfs_trace.Sink.to_batch
            (Dfs_trace.Merge.merge_chunks ~scrub:Dfs_sim.Cluster.self_users
               sources)
        in
        let stats = Dfs_analysis.Trace_stats.of_batch mbatch in
        Format.printf "%a@." Dfs_analysis.Trace_stats.pp stats;
        let act600 = Dfs_analysis.Activity.analyze ~interval:600.0 mbatch in
        let act10 = Dfs_analysis.Activity.analyze ~interval:10.0 mbatch in
        Format.printf "%a@.%a@." Dfs_analysis.Activity.pp act600
          Dfs_analysis.Activity.pp act10;
        let d = Dfs_trace.Corruption.detected () in
        if d > 0 then
          Dfs_obs.Log.warn
            "%d corrupt trace source(s) salvaged; %d records recovered \
             ahead of the damage"
            d
            (Dfs_trace.Corruption.salvaged_records ()))
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Merge and analyze previously written trace files")
    Term.(
      const run $ verbosity_term $ files_arg $ on_corruption_arg
      $ metrics_out_arg)

(* -- import / replay ----------------------------------------------------------- *)

let import_cmd =
  let csv_arg =
    let doc =
      "SNIA-style block-trace CSV \
       (Timestamp,Hostname,DiskNumber,Type,Offset,Size[,ResponseTime]); \
       $(b,-) reads standard input."
    in
    Arg.(value & pos 0 string "-" & info [] ~docv:"CSV" ~doc)
  in
  let out_arg =
    let doc =
      "Write the canonical trace to $(docv); $(b,-) (default) writes to \
       standard output (text format only)."
    in
    Arg.(value & opt string "-" & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let idle_gap_arg =
    let doc =
      "Seconds of per-(process, file) inactivity that close an inferred \
       open/close session."
    in
    Arg.(value & opt float 1.0 & info [ "idle-gap" ] ~docv:"SECONDS" ~doc)
  in
  let servers_arg =
    let doc =
      "Servers to spread imported files over (file id mod N, \
       deterministic)."
    in
    Arg.(value & opt int 4 & info [ "servers" ] ~docv:"N" ~doc)
  in
  let run () csv out format idle_gap servers on_corruption =
    check "--idle-gap" ~valid:">= 0" (idle_gap >= 0.0) (Printf.sprintf "%g" idle_gap);
    check_positive "--servers" servers;
    let on_corruption = parse_on_corruption on_corruption in
    let format = parse_trace_format format in
    let config =
      { Dfs_ingest.Infer.default_config with Dfs_ingest.Infer.idle_gap }
    in
    let result =
      if csv = "-" then
        Dfs_ingest.Import.of_csv_string ~config ~n_servers:servers
          ~on_corruption ~source:"<stdin>"
          (In_channel.input_all In_channel.stdin)
      else
        Dfs_ingest.Import.of_csv_file ~config ~n_servers:servers
          ~on_corruption csv
    in
    match result with
    | Error e ->
      Dfs_obs.Log.error "%s" e;
      exit 2
    | Ok (records, stats) ->
      (if out = "-" then begin
         let w = Dfs_trace.Writer.to_channel ~format:Dfs_trace.Writer.Text stdout in
         List.iter (Dfs_trace.Writer.write w) records;
         Dfs_trace.Writer.flush w
       end
       else
         Dfs_trace.Writer.with_file ~format out (fun w ->
             List.iter (Dfs_trace.Writer.write w) records));
      Dfs_obs.Log.info
        "imported %d rows (%d bad) from %d hosts: %d files, %d records, \
         %.1f s span"
        stats.Dfs_ingest.Import.rows stats.bad_rows stats.hosts stats.files
        stats.records stats.duration
  in
  Cmd.v
    (Cmd.info "import"
       ~doc:
         "Import a SNIA-style block-trace CSV into the canonical trace \
          format, inferring open/close sessions from per-(host, disk) \
          access runs. Malformed rows are one-line $(b,file:line:) \
          diagnostics under the usual fail/salvage corruption policy. The \
          output replays ($(b,replay), $(b,--replay)) and analyzes \
          ($(b,analyze)) like a native trace")
    Term.(
      const run $ verbosity_term $ csv_arg $ out_arg $ trace_format_arg
      $ idle_gap_arg $ servers_arg $ on_corruption_arg)

let replay_cmd =
  let trace_arg =
    let doc =
      "Canonical trace to replay (text or columnar); $(b,-) (default) \
       reads standard input."
    in
    Arg.(value & pos 0 string "-" & info [] ~docv:"TRACE" ~doc)
  in
  let out_arg =
    let doc =
      "Write the replayed cluster's own merged trace to $(docv) (in \
       $(b,--trace-format))."
    in
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let run () trace out format on_corruption metrics_out trace_out profile_out =
    let on_corruption = parse_on_corruption on_corruption in
    let format = parse_trace_format format in
    with_obs ~metrics_out ~trace_out ~profile_out (fun () ->
        let batch =
          match
            if trace = "-" then
              Dfs_trace.Reader.batch_of_string ~on_corruption ~source:"<stdin>"
                (In_channel.input_all In_channel.stdin)
            else Dfs_trace.Reader.batch_of_file ~on_corruption trace
          with
          | Ok batch -> batch
          | Error e ->
            Dfs_obs.Log.error "%s: %s"
              (if trace = "-" then "<stdin>" else trace)
              e;
            exit 2
        in
        match Dfs_workload.Replay.run batch with
        | Error e ->
          Dfs_obs.Log.error "%s" e;
          exit 2
        | Ok (cluster, stats) ->
          let merged = Dfs_sim.Cluster.merged_chunks cluster in
          (* Deterministic summary only (no wall clock), so CI can
             byte-compare replays across job/shard counts. *)
          Printf.printf "%-24s %d\n" "input_records" stats.Dfs_workload.Replay.records;
          Printf.printf "%-24s %d\n" "applied" stats.applied;
          Printf.printf "%-24s %d\n" "skipped" stats.skipped;
          Printf.printf "%-24s %d\n" "synthesized_opens" stats.synthesized_opens;
          Printf.printf "%-24s %d\n" "clients" stats.clients;
          Printf.printf "%-24s %d\n" "servers" stats.servers;
          Printf.printf "%-24s %d\n" "files" stats.files;
          Printf.printf "%-24s %d\n" "replayed_records"
            (Dfs_trace.Sink.length merged);
          Printf.printf "%-24s %08x\n" "replayed_crc32c"
            (Dfs_workload.Sharded.digest merged);
          Option.iter
            (fun path ->
              Dfs_trace.Writer.with_file ~format path (fun w ->
                  Dfs_trace.Sink.iter (Dfs_trace.Writer.write w) merged);
              Dfs_obs.Log.info "wrote replayed trace to %s" path)
            out;
          Dfs_sim.Cluster.release_sim_state cluster)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Replay a canonical trace (e.g. the output of $(b,import)) through \
          a live simulated cluster — block caches, consistency, counters — \
          and print a deterministic summary (applied/skipped counts, \
          replayed-trace record count and CRC-32C). The summary is \
          byte-identical for any DFS_JOBS value")
    Term.(
      const run $ verbosity_term $ trace_arg $ out_arg $ trace_format_arg
      $ on_corruption_arg $ metrics_out_arg $ trace_out_arg $ profile_out_arg)

(* -- fsck ------------------------------------------------------------------------- *)

let fsck_cmd =
  let repair_arg =
    let doc =
      "Repair damaged traces in place: truncate each to its longest valid \
       prefix (whole segments, records or lines), rewrite an all-invalid \
       columnar file as one empty sealed segment, and delete orphaned \
       $(b,.tmp) files left by an interrupted seal. Unrecognized files are \
       never modified."
    in
    Arg.(value & flag & info [ "repair" ] ~doc)
  in
  let paths_arg =
    let doc =
      "Trace files or directories to verify (directories expand to their \
       .dfsc/.dfsb/.trace/.txt/.tmp entries)."
    in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"PATH" ~doc)
  in
  let run () repair paths =
    let verdicts = Dfs_trace.Fsck.check_paths ~repair paths in
    List.iter
      (fun v ->
        print_endline
          (Dfs_obs.Json.to_string (Dfs_trace.Fsck.verdict_to_json v)))
      verdicts;
    let n st =
      List.length
        (List.filter (fun v -> v.Dfs_trace.Fsck.status = st) verdicts)
    in
    Dfs_obs.Log.info
      "fsck: %d file(s) — %d ok, %d corrupt, %d repaired, %d orphan-tmp, %d \
       unknown, %d error(s)"
      (List.length verdicts) (n Dfs_trace.Fsck.Clean)
      (n Dfs_trace.Fsck.Corrupt) (n Dfs_trace.Fsck.Repaired)
      (n Dfs_trace.Fsck.Orphan_tmp) (n Dfs_trace.Fsck.Unknown)
      (n Dfs_trace.Fsck.Io_error);
    let code = Dfs_trace.Fsck.exit_code verdicts in
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Verify trace files (text and checksummed columnar), \
          printing one machine-readable JSON verdict per file; with \
          $(b,--repair), salvage each file's longest valid prefix. Exits 0 \
          when everything is clean, 1 when corruption, orphans or unknown \
          files were found (even if repaired), 2 on I/O errors")
    Term.(const run $ verbosity_term $ repair_arg $ paths_arg)

(* -- stats ------------------------------------------------------------------------ *)

let stats_cmd =
  let run () n scale faults fault_seed metrics_out trace_out profile_out =
    check_trace "--trace" n;
    check_scale scale;
    with_obs ~metrics_out ~trace_out ~profile_out (fun () ->
        let preset = scaled_preset n scale in
        let preset =
          match fault_profile faults fault_seed with
          | Some p -> Dfs_workload.Presets.with_faults preset p
          | None -> preset
        in
        Dfs_obs.Log.info "simulating %s (%.1f h)" preset.name
          (preset.duration /. 3600.0);
        let t0 = Unix.gettimeofday () in
        let cluster, _driver = Dfs_workload.Presets.run preset in
        let wall = Unix.gettimeofday () -. t0 in
        let engine = Dfs_sim.Cluster.engine cluster in
        Printf.printf "== %s: engine ==\n" preset.name;
        Printf.printf "%-44s %.1f\n" "simulated_seconds"
          (Dfs_sim.Engine.now engine);
        Printf.printf "%-44s %.3f\n" "wall_seconds" wall;
        Printf.printf "%-44s %.0f\n" "sim_events_per_wall_second"
          (float_of_int (Dfs_sim.Engine.events_executed engine)
          /. Float.max 1e-9 wall);
        Printf.printf "\n== %s: simulator metrics ==\n" preset.name;
        print_string (Dfs_obs.Metrics.render_text ());
        Option.iter
          (fun inj ->
            Format.printf "@.== %s: crash recovery ==@.%a@." preset.name
              Dfs_analysis.Recovery_stats.pp
              (Dfs_analysis.Recovery_stats.analyze [ (preset.name, inj) ]))
          (Dfs_sim.Cluster.faults cluster))
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run one trace preset and print the simulator's own metrics \
          (engine, network, disk, cache, consistency counters and latency \
          quantiles)")
    Term.(
      const run $ verbosity_term $ trace_n_arg $ scale_arg $ faults_arg
      $ fault_seed_arg $ metrics_out_arg $ trace_out_arg $ profile_out_arg)

(* -- scale --------------------------------------------------------------------- *)

let scale_cmd =
  let clients_arg =
    let doc = "Total client workstations across all partitions." in
    Arg.(value & opt int 320 & info [ "clients" ] ~docv:"N" ~doc)
  in
  let servers_arg =
    let doc = "Total home servers across all partitions." in
    Arg.(value & opt int 8 & info [ "servers" ] ~docv:"N" ~doc)
  in
  let days_arg =
    let doc = "Simulated duration in days (fractions allowed)." in
    Arg.(value & opt float 0.05 & info [ "days" ] ~docv:"DAYS" ~doc)
  in
  let seed_arg =
    let doc = "Workload seed (each partition derives its own stream)." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let partitions_arg =
    let doc =
      "Number of logical partitions (default: one per ~64 clients, capped \
       by the server count). Part of the configuration — changing it \
       changes the workload — unlike $(b,--jobs), which only picks how \
       many domains execute it."
    in
    Arg.(value & opt (some int) None & info [ "partitions" ] ~docv:"N" ~doc)
  in
  let run () clients servers days seed partitions faults fault_seed jobs
      chunk_records spill_dir metrics_out trace_out profile_out =
    check_positive "--clients" clients;
    check_positive "--servers" servers;
    check "--days" ~valid:"0 < DAYS, finite" (Float.is_finite days && days > 0.0)
      (Printf.sprintf "%g" days);
    Option.iter
      (fun p ->
        let hi = min clients servers in
        check "--partitions"
          ~valid:(Printf.sprintf "1-%d, at most --clients and --servers" hi)
          (p >= 1 && p <= hi) (string_of_int p))
      partitions;
    Option.iter (check_positive "--chunk-records") chunk_records;
    with_obs ~metrics_out ~trace_out ~profile_out (fun () ->
        let fault_profile =
          Option.value
            (fault_profile faults fault_seed)
            ~default:Dfs_fault.Profile.none
        in
        let cfg =
          {
            Dfs_workload.Sharded.default_config with
            Dfs_workload.Sharded.n_clients = clients;
            n_servers = servers;
            seed;
            duration = days *. 86400.0;
            fault_profile;
            partitions;
            chunk_records;
            spill_dir;
          }
        in
        let r = Dfs_workload.Sharded.run ?workers:jobs cfg in
        (* Deterministic summary only — no wall-clock values, so CI can
           byte-compare this output across worker counts. *)
        Printf.printf "== scale: %d clients, %d servers, %g days, seed %d, faults %s ==\n"
          clients servers days seed
          (Option.value faults ~default:"none");
        Printf.printf "%-24s %d\n" "partitions" r.partitions;
        Printf.printf "%-24s %d\n" "users" r.users;
        Printf.printf "%-24s %d\n" "trace_records"
          (Dfs_trace.Sink.length r.merged);
        Printf.printf "%-24s %08x\n" "trace_crc32c"
          (Dfs_workload.Sharded.digest r.merged);
        Printf.printf "%-24s %d\n" "barriers" r.barriers;
        Printf.printf "%-24s %d\n" "remote_msgs" r.remote_msgs;
        Dfs_workload.Sharded.release r)
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "Run a large partitioned cluster as one conservative parallel \
          discrete-event simulation and print a deterministic summary \
          (partition count, user count, merged-trace record count and \
          CRC-32C, barrier and cross-partition message counts). The \
          summary is byte-identical for any $(b,--jobs) or DFS_JOBS value")
    Term.(
      const run $ verbosity_term $ clients_arg $ servers_arg $ days_arg
      $ seed_arg $ partitions_arg $ faults_arg $ fault_seed_arg
      $ jobs_arg $ chunk_records_arg $ spill_dir_arg $ metrics_out_arg
      $ trace_out_arg $ profile_out_arg)

(* -- ablate ---------------------------------------------------------------------- *)

let ablate_cmd =
  let run () scale =
    check_scale scale;
    let ds = Dfs_core.Dataset.generate ?scale ~traces:[ 1 ] () in
    print_string (Dfs_core.Ablation.render (List.hd ds.runs))
  in
  Cmd.v
    (Cmd.info "ablate"
       ~doc:
         "Simulate trace 1 and print the design points the paper argues in \
          prose: Section 5.3's paging rates and Table 7's server cache for \
          trace 1, then ablations of the delayed-write interval, the cache \
          size ceiling, process migration and local paging disks on small \
          fixed clusters, and the update-in-place vs log-structured disk \
          crossover (Section 6) on trace 1's accesses")
    Term.(const run $ verbosity_term $ scale_arg)

let main =
  let doc =
    "Reproduction of 'Measurements of a Distributed File System' (SOSP 1991)"
  in
  Cmd.group (Cmd.info "dfs-repro" ~doc)
    [
      list_cmd;
      experiment_cmd;
      all_cmd;
      facts_cmd;
      simulate_cmd;
      import_cmd;
      replay_cmd;
      analyze_cmd;
      fsck_cmd;
      stats_cmd;
      scale_cmd;
      ablate_cmd;
    ]

(* A path the CLI cannot open, read or write is one [dfs] line and exit
   2, raised from wherever the I/O happens; any other exception is still
   an internal error (exit 125). *)
let () =
  exit
    (try Cmd.eval ~catch:false main with
    | Sys_error e ->
      Dfs_obs.Log.error "%s" e;
      2
    | e ->
      Printexc.default_uncaught_exception_handler e
        (Printexc.get_raw_backtrace ());
      Cmd.Exit.internal_error)
