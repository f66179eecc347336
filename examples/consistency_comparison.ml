(* Cache-consistency mechanisms compared (Sections 5.5-5.6 of the paper):

   1. how often would users see STALE data under an NFS-style polling
      scheme (Table 11), and
   2. what do the three "real" mechanisms cost on write-shared files
      (Table 12): Sprite's disable-caching, the modified Sprite scheme,
      and Locus/Echo-style tokens.

   Run with:  dune exec examples/consistency_comparison.exe *)

module C = Dfs_consistency

let () =
  (* Simulate a trace with plenty of sharing: the busy part of a day. *)
  let preset =
    Dfs_workload.Presets.scaled (Dfs_workload.Presets.trace 3) ~factor:0.08
  in
  Printf.printf "simulating %s (%.1f h)...\n%!" preset.name
    (preset.duration /. 3600.0);
  let cluster, _ = Dfs_workload.Presets.run preset in
  let trace = Dfs_trace.Sink.to_batch (Dfs_sim.Cluster.merged_chunks cluster) in

  (* -- stale data under polling ------------------------------------------ *)
  Printf.printf "\n== What if consistency were polling-based (NFS-style)? ==\n";
  List.iter
    (fun interval ->
      let r = C.Polling.simulate ~interval trace in
      Printf.printf
        "  refresh %4.0fs: %5.2f stale reads/hour; %4.1f%% of users \
         affected; %5.3f%% of opens return stale data\n"
        interval r.errors_per_hour
        (C.Polling.pct_users_affected r)
        (C.Polling.pct_opens_with_error r))
    [ 60.0; 30.0; 10.0; 3.0 ];

  (* -- mechanism overheads ------------------------------------------------ *)
  Printf.printf "\n== Consistency overhead on write-shared files ==\n";
  let streams = C.Shared_events.extract trace in
  let demand_bytes = C.Shared_events.total_requested streams in
  let demand_requests = C.Shared_events.total_requests streams in
  Printf.printf
    "  %d write-shared files; applications requested %.1f KB in %d calls\n"
    (List.length streams)
    (float_of_int demand_bytes /. 1024.0)
    demand_requests;
  let show name result =
    let r = C.Overhead.ratios ~demand_bytes ~demand_requests result in
    Printf.printf "  %-28s bytes ratio %5.2f   RPC ratio %5.2f\n" name
      r.bytes_ratio r.rpc_ratio
  in
  show "Sprite (disable caching)" (C.Sprite.simulate streams);
  show "Sprite modified" (C.Sprite_modified.simulate streams);
  show "token-based" (C.Token.simulate streams);
  Printf.printf
    "\nThe paper's conclusion holds: overheads are comparable, and the \
     differences depend on how finely applications share — so pick the \
     simplest mechanism.\n"
