(* The full measurement pipeline, end to end, the way the paper's tooling
   worked: instrumented servers write per-server trace files; the files
   are parsed back, merged into one time-ordered stream, scrubbed of the
   tracing infrastructure's own records, and analyzed.

   Run with:  dune exec examples/trace_pipeline.exe *)

module Cluster = Dfs_sim.Cluster
module Sink = Dfs_trace.Sink

let () =
  let preset =
    Dfs_workload.Presets.scaled (Dfs_workload.Presets.trace 2) ~factor:0.02
  in
  Printf.printf "1. simulate: %s, %.0f minutes\n%!" preset.name
    (preset.duration /. 60.0);
  let cluster, _ = Dfs_workload.Presets.run preset in

  let dir = Filename.temp_file "dfs-traces" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      (* 2. each server's kernel log goes to its own trace file *)
      let paths =
        List.mapi
          (fun i chunks ->
            let name = Printf.sprintf "server%d.trace" i in
            let path = Filename.concat dir name in
            Dfs_trace.Writer.with_file path (fun w ->
                Sink.iter (Dfs_trace.Writer.write w) chunks);
            Printf.printf "2. wrote %s (%d records)\n" name (Sink.length chunks);
            path)
          (Cluster.server_chunks cluster)
      in
      (* 3. parse them back *)
      let sources =
        List.map
          (fun path ->
            match Dfs_trace.Reader.batch_of_file path with
            | Ok batch -> Sink.of_batch batch
            | Error e ->
              Printf.eprintf "%s: %s\n" path e;
              exit 1)
          paths
      in
      (* 4. merge by timestamp and drop the trace daemon's and the nightly
         backup's own records, exactly as Section 3 describes *)
      let merged =
        Sink.to_batch
          (Dfs_trace.Merge.merge_chunks ~scrub:Cluster.self_users sources)
      in
      Printf.printf "3. merged %d records\n" (Dfs_trace.Record_batch.length merged);
      (* 5. analyze *)
      let accesses = Dfs_analysis.Session.of_batch merged in
      let stats = Dfs_analysis.Trace_stats.of_batch merged in
      Format.printf "4. %a@." Dfs_analysis.Trace_stats.pp stats;
      let module Rl = Dfs_analysis.Run_length in
      let rl = Rl.analyze accesses in
      Printf.printf
        "5. sequential runs: %d; runs under 10 KB: %.1f%%; bytes in runs \
         over 1 MB: %.1f%%\n"
        (Dfs_util.Cdf.count rl.by_runs)
        (100.0 *. Dfs_util.Cdf.fraction_below rl.by_runs Rl.short_run)
        (100.0 *. (1.0 -. Dfs_util.Cdf.fraction_below rl.by_bytes Rl.long_run)))
