(* Tests for Dfs_workload: parameters, the namespace, migration board, and
   the application models run against a real (small) cluster. *)

open Dfs_workload
module Ids = Dfs_trace.Ids
module Record = Dfs_trace.Record
module Cluster = Dfs_sim.Cluster
module Engine = Dfs_sim.Engine

(* -- params --------------------------------------------------------------------- *)

let test_params_groups_complete () =
  List.iter
    (fun g -> ignore (Params.find_group Params.default g))
    Params.all_groups

let test_params_group_assignment_cycles () =
  let groups = List.init 8 (Params.group_of_user Params.default) in
  Alcotest.(check bool) "first four distinct" true
    (List.length (List.sort_uniq compare (List.filteri (fun i _ -> i < 4) groups)) = 4);
  Alcotest.(check bool) "cycle repeats" true
    (List.nth groups 0 = List.nth groups 4)

let test_params_hour_activity_shape () =
  let h = Params.default.hour_activity in
  Alcotest.(check int) "24 hours" 24 (Array.length h);
  Alcotest.(check bool) "night quieter than midday" true (h.(3) < h.(14));
  Array.iter (fun x -> Alcotest.(check bool) "positive" true (x > 0.0)) h

let test_params_mixes_positive () =
  List.iter
    (fun g ->
      let m = (Params.find_group Params.default g).mix in
      let total =
        m.edit +. m.compile +. m.pmake +. m.mail +. m.doc +. m.shell
        +. m.big_sim
      in
      Alcotest.(check bool) "mix weights sum to ~1" true
        (total > 0.9 && total < 1.1))
    Params.all_groups

(* -- migration board -------------------------------------------------------------- *)

let test_migration_pick_avoids_home_and_busy () =
  let b = Migration.create ~n_clients:4 () in
  let rng = Dfs_util.Rng.create 1 in
  let user = Ids.User.of_int 1 in
  (* everything idle: must not pick home *)
  for _ = 1 to 20 do
    match Migration.pick_host b ~rng ~user ~home:2 ~now:1000.0 with
    | Some h -> Alcotest.(check bool) "not home" true (h <> 2)
    | None -> Alcotest.fail "expected a host"
  done

let test_migration_console_activity_blocks () =
  let b = Migration.create ~n_clients:2 () in
  let rng = Dfs_util.Rng.create 1 in
  let user = Ids.User.of_int 1 in
  Migration.note_home_activity b ~host:1 ~now:1000.0;
  (* host 1 just had console activity; host 0 is home: nothing available *)
  Alcotest.(check (option int)) "no idle host" None
    (Migration.pick_host b ~rng ~user ~home:0 ~now:1001.0);
  (* long after, host 1 is idle again *)
  Alcotest.(check (option int)) "idle later" (Some 1)
    (Migration.pick_host b ~rng ~user ~home:0 ~now:5000.0)

let test_migration_load_cap () =
  let b = Migration.create ~n_clients:2 () in
  let rng = Dfs_util.Rng.create 1 in
  let user = Ids.User.of_int 1 in
  Migration.job_started b ~host:1;
  Migration.job_started b ~host:1;
  Alcotest.(check int) "load" 2 (Migration.migrated_load b ~host:1);
  Alcotest.(check (option int)) "full host skipped" None
    (Migration.pick_host b ~rng ~user ~home:0 ~now:1000.0);
  Migration.job_finished b ~host:1;
  Alcotest.(check (option int)) "slot freed" (Some 1)
    (Migration.pick_host b ~rng ~user ~home:0 ~now:1000.0)

let test_migration_host_reuse () =
  let b = Migration.create ~n_clients:10 () in
  let rng = Dfs_util.Rng.create 5 in
  let user = Ids.User.of_int 1 in
  match Migration.pick_host b ~rng ~user ~home:0 ~now:1000.0 with
  | None -> Alcotest.fail "host expected"
  | Some first ->
    (* the same user's next picks reuse the host while it stays idle *)
    for _ = 1 to 5 do
      Alcotest.(check (option int)) "reused" (Some first)
        (Migration.pick_host b ~rng ~user ~home:0 ~now:1000.0)
    done

let test_migration_fresh_pids () =
  let b = Migration.create ~n_clients:2 () in
  let a = Migration.fresh_pid b and c = Migration.fresh_pid b in
  Alcotest.(check bool) "distinct" false (Ids.Process.equal a c)

(* -- namespace ---------------------------------------------------------------------- *)

let make_ns () =
  let rng = Dfs_util.Rng.create 11 in
  let fs = Dfs_sim.Fs_state.create ~n_servers:2 ~rng () in
  (fs, Namespace.create ~fs ~rng ~params:Params.default ~now:0.0 ~n_users:8)

let test_namespace_user_files () =
  let _, ns = make_ns () in
  let u = Namespace.user_files ns (Ids.User.of_int 1) in
  Alcotest.(check int) "sources populated" Params.default.sources_per_user
    (Array.length u.sources);
  Alcotest.(check bool) "home is a directory" true u.home_dir.is_dir;
  Alcotest.(check bool) "mailbox nonempty" true (u.mailbox.size > 0);
  (* same user -> same tree *)
  let u' = Namespace.user_files ns (Ids.User.of_int 1) in
  Alcotest.(check bool) "memoized" true (u == u')

let test_namespace_named_binaries_stable () =
  let _, ns = make_ns () in
  let rng = Dfs_util.Rng.create 1 in
  let a = Namespace.pick_binary ns ~rng ~name:"cc" in
  let b = Namespace.pick_binary ns ~rng ~name:"cc" in
  Alcotest.(check bool) "same binary" true (a.exe == b.exe);
  Alcotest.(check bool) "code+data <= size" true
    (a.code_bytes + a.data_bytes <= a.exe.size)

let test_namespace_group_files_distinct () =
  let _, ns = make_ns () in
  let statuses = List.map (Namespace.group_status_file ns) Params.all_groups in
  let ids = List.map (fun (i : Dfs_sim.Fs_state.file_info) -> Ids.File.to_int i.id) statuses in
  Alcotest.(check int) "four distinct status files" 4
    (List.length (List.sort_uniq compare ids));
  let logs = List.map (Namespace.group_log ns) Params.all_groups in
  Alcotest.(check int) "four distinct logs" 4
    (List.length
       (List.sort_uniq compare
          (List.map (fun (i : Dfs_sim.Fs_state.file_info) -> Ids.File.to_int i.id) logs)))

let test_namespace_zipf_source_locality () =
  let _, ns = make_ns () in
  let rng = Dfs_util.Rng.create 9 in
  let u = Namespace.user_files ns (Ids.User.of_int 2) in
  let counts = Array.make (Array.length u.sources) 0 in
  for _ = 1 to 2000 do
    let i = Namespace.pick_source ns ~rng u in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check bool) "first source hottest" true
    (counts.(0) > counts.(Array.length counts - 1))

(* -- apps against a live cluster ------------------------------------------------------ *)

let small_cluster () =
  Cluster.create
    {
      Cluster.default_config with
      n_clients = 4;
      n_servers = 2;
      seed = 77;
      simulate_infrastructure = false;
    }

let make_ctx cluster =
  let params = Params.default in
  let ns =
    Namespace.create
      ~fs:(Cluster.fs cluster)
      ~rng:(Dfs_util.Rng.split (Cluster.rng cluster))
      ~params ~now:0.0 ~n_users:4
  in
  let board = Migration.create ~n_clients:4 () in
  {
    Apps.cluster;
    params;
    ns;
    board;
    rng = Dfs_util.Rng.create 123;
    user = Ids.User.of_int 0;
    group = Params.Os_research;
    home = 0;
    uses_migration = true;
  }

let run_app cluster f =
  Engine.spawn (Cluster.engine cluster) f;
  Sharded.drive cluster ~until:36000.0

let count_kind trace pred = List.length (List.filter pred trace)

let test_app_edit_leaves_balanced_trace () =
  let cluster = small_cluster () in
  let ctx = make_ctx cluster in
  run_app cluster (fun () -> Apps.edit ctx);
  let trace = Cluster.merged_trace cluster in
  let opens =
    count_kind trace (fun r ->
        match r.Record.kind with Record.Open _ -> true | _ -> false)
  in
  let closes =
    count_kind trace (fun r ->
        match r.Record.kind with Record.Close _ -> true | _ -> false)
  in
  Alcotest.(check bool) "did something" true (opens > 0);
  Alcotest.(check int) "opens = closes" opens closes

let test_app_compile_reads_and_writes () =
  let cluster = small_cluster () in
  let ctx = make_ctx cluster in
  run_app cluster (fun () -> Apps.compile ctx ~host:0 ~migrated:false);
  let trace = Cluster.merged_trace cluster in
  let accesses = Dfs_analysis.Session.of_batch (Dfs_trace.Record_batch.of_list trace) in
  let reads =
    List.exists (fun (a : Dfs_analysis.Session.access) -> a.a_bytes_read > 0) accesses
  in
  let writes =
    List.exists (fun (a : Dfs_analysis.Session.access) -> a.a_bytes_written > 0) accesses
  in
  Alcotest.(check bool) "reads happened" true reads;
  Alcotest.(check bool) "writes happened" true writes;
  (* the compiler temporary dies within the run *)
  let deletes =
    count_kind trace (fun r ->
        match r.Record.kind with Record.Delete _ -> true | _ -> false)
  in
  Alcotest.(check bool) "temporary deleted" true (deletes >= 1)

let test_app_pmake_migrates () =
  let cluster = small_cluster () in
  let ctx = make_ctx cluster in
  run_app cluster (fun () -> Apps.pmake ctx);
  let trace = Cluster.merged_trace cluster in
  let migrated =
    count_kind trace (fun (r : Record.t) -> r.migrated)
  in
  Alcotest.(check bool) "migrated records present" true (migrated > 0);
  (* migrated jobs ran on hosts other than home *)
  let remote =
    List.exists
      (fun (r : Record.t) -> r.migrated && Ids.Client.to_int r.client <> ctx.home)
      trace
  in
  Alcotest.(check bool) "migrated work off-home" true remote

let test_app_big_sim_big_reads () =
  let cluster = small_cluster () in
  let ctx = { (make_ctx cluster) with group = Params.Architecture } in
  run_app cluster (fun () -> Apps.big_sim ctx);
  let trace = Cluster.merged_trace cluster in
  let accesses = Dfs_analysis.Session.of_batch (Dfs_trace.Record_batch.of_list trace) in
  let biggest =
    List.fold_left
      (fun acc (a : Dfs_analysis.Session.access) -> max acc a.a_bytes_read)
      0 accesses
  in
  Alcotest.(check bool) "megabyte-scale input read" true (biggest >= 1_000_000)

let test_app_mail_appends () =
  let cluster = small_cluster () in
  let ctx = make_ctx cluster in
  run_app cluster (fun () -> Apps.mail ctx);
  let u = Namespace.user_files ctx.ns ctx.user in
  Alcotest.(check bool) "mailbox grew" true (u.mailbox.size > 24 * 1024)

let test_app_pick_distribution () =
  let rng = Dfs_util.Rng.create 3 in
  let mix = (Params.find_group Params.default Params.Misc).mix in
  for _ = 1 to 200 do
    match Apps.pick mix rng with
    | Apps.Big_sim -> Alcotest.fail "Misc group never runs big_sim (weight 0)"
    | _ -> ()
  done

(* -- driver / presets ------------------------------------------------------------------ *)

let test_preset_validation () =
  Alcotest.check_raises "trace 0 invalid"
    (Invalid_argument "Presets.trace: expected 1-8") (fun () ->
      ignore (Presets.trace 0));
  Alcotest.(check int) "eight presets" 8 (List.length (Presets.all ()))

let test_presets_special_users () =
  let p3 = Presets.trace 3 in
  let p5 = Presets.trace 5 in
  Alcotest.(check int) "traces 3 has the two class-project users" 2
    (List.length p3.special_users);
  Alcotest.(check int) "trace 5 has none" 0 (List.length p5.special_users)

let test_preset_scaled () =
  let p = Presets.scaled (Presets.trace 1) ~factor:0.1 in
  Alcotest.(check (float 1.0)) "duration scaled" 8640.0 p.duration;
  Alcotest.(check bool) "starts mid-morning" true (p.start_hour > 8.0)

let test_driver_small_run_is_deterministic () =
  let run () =
    let p =
      { (Presets.scaled (Presets.trace 1) ~factor:0.004) with
        cluster_config =
          { (Presets.trace 1).cluster_config with n_clients = 6; seed = 5 } }
    in
    let cluster, _driver = Presets.run p in
    List.length (Cluster.merged_trace cluster)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "produced records" true (a > 0);
  Alcotest.(check int) "identical reruns" a b

let test_driver_trace_well_formed () =
  let p =
    { (Presets.scaled (Presets.trace 2) ~factor:0.008) with
      cluster_config = { (Presets.trace 2).cluster_config with n_clients = 8 } }
  in
  let cluster, driver = Presets.run p in
  Alcotest.(check bool) "users exist" true (Driver.n_users driver > 0);
  let trace = Cluster.merged_trace cluster in
  Alcotest.(check bool) "sorted" true (Merge_model.is_sorted trace);
  (* scrubbed: no infrastructure users left *)
  Alcotest.(check bool) "scrubbed" true
    (List.for_all
       (fun (r : Record.t) ->
         not (Ids.User.Set.mem r.user Cluster.self_users))
       trace)

let suite =
  [
    ("params groups complete", `Quick, test_params_groups_complete);
    ("params group assignment", `Quick, test_params_group_assignment_cycles);
    ("params hour activity", `Quick, test_params_hour_activity_shape);
    ("params mixes positive", `Quick, test_params_mixes_positive);
    ("migration avoids home/busy", `Quick, test_migration_pick_avoids_home_and_busy);
    ("migration console blocks", `Quick, test_migration_console_activity_blocks);
    ("migration load cap", `Quick, test_migration_load_cap);
    ("migration host reuse", `Quick, test_migration_host_reuse);
    ("migration fresh pids", `Quick, test_migration_fresh_pids);
    ("namespace user files", `Quick, test_namespace_user_files);
    ("namespace named binaries", `Quick, test_namespace_named_binaries_stable);
    ("namespace group files distinct", `Quick, test_namespace_group_files_distinct);
    ("namespace zipf locality", `Quick, test_namespace_zipf_source_locality);
    ("app edit balanced trace", `Quick, test_app_edit_leaves_balanced_trace);
    ("app compile reads/writes", `Quick, test_app_compile_reads_and_writes);
    ("app pmake migrates", `Quick, test_app_pmake_migrates);
    ("app big_sim big reads", `Quick, test_app_big_sim_big_reads);
    ("app mail appends", `Quick, test_app_mail_appends);
    ("app pick distribution", `Quick, test_app_pick_distribution);
    ("preset validation", `Quick, test_preset_validation);
    ("presets special users", `Quick, test_presets_special_users);
    ("preset scaled", `Quick, test_preset_scaled);
    ("driver deterministic", `Slow, test_driver_small_run_is_deterministic);
    ("driver trace well-formed", `Slow, test_driver_trace_well_formed);
  ]
