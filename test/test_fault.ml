(* Tests for the fault-injection subsystem: schedule determinism,
   retry/backoff arithmetic, the offline writeback queue, crash loss
   accounting in the block cache, and an end-to-end recovery storm on a
   crash-heavy preset. *)

module Profile = Dfs_fault.Profile
module Schedule = Dfs_fault.Schedule
module Injector = Dfs_fault.Injector
module Bc = Dfs_cache.Block_cache
module File = Dfs_trace.Ids.File
module Cluster = Dfs_sim.Cluster
module Presets = Dfs_workload.Presets

let bs = Dfs_util.Units.block_size

(* -- profiles ----------------------------------------------------------------- *)

let test_profile_names () =
  Alcotest.(check string) "none" "none" (Profile.name Profile.none);
  Alcotest.(check string) "light" "light" (Profile.name Profile.light);
  Alcotest.(check string) "heavy" "heavy" (Profile.name Profile.crash_heavy);
  Alcotest.(check string) "seed-insensitive" "heavy"
    (Profile.name (Profile.with_seed Profile.crash_heavy 999));
  Alcotest.(check bool) "none is none" true (Profile.is_none Profile.none);
  Alcotest.(check bool) "heavy is not none" false
    (Profile.is_none Profile.crash_heavy);
  (match Profile.of_name "crash-heavy" with
  | Some p -> Alcotest.(check string) "alias" "heavy" (Profile.name p)
  | None -> Alcotest.fail "crash-heavy alias rejected");
  Alcotest.(check bool) "unknown rejected" true (Profile.of_name "zap" = None)

(* -- schedule ----------------------------------------------------------------- *)

let windows_of sched i =
  List.map
    (fun w -> (w.Schedule.down_at, w.Schedule.up_at))
    (Schedule.server_outages sched i)

let test_schedule_deterministic () =
  let gen () =
    Schedule.generate ~profile:Profile.crash_heavy ~n_servers:4
      ~horizon:86400.0
  in
  let a = gen () and b = gen () in
  for i = 0 to 3 do
    Alcotest.(check (list (pair (float 0.0) (float 0.0))))
      (Printf.sprintf "server %d windows identical" i)
      (windows_of a i) (windows_of b i)
  done;
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "partitions identical" (Schedule.partitions a |> List.map (fun w ->
        (w.Schedule.down_at, w.Schedule.up_at)))
    (Schedule.partitions b |> List.map (fun w ->
         (w.Schedule.down_at, w.Schedule.up_at)));
  Alcotest.(check int) "crash counts equal" (Schedule.crash_count a)
    (Schedule.crash_count b);
  Alcotest.(check bool) "heavy profile crashes within a day" true
    (Schedule.crash_count a > 0);
  (* A different seed must give a different schedule. *)
  let c =
    Schedule.generate
      ~profile:(Profile.with_seed Profile.crash_heavy 42)
      ~n_servers:4 ~horizon:86400.0
  in
  Alcotest.(check bool) "different seed differs" true
    (windows_of a 0 <> windows_of c 0)

let test_schedule_prefix_stable_in_n_servers () =
  (* Adding servers must not perturb earlier servers' windows. *)
  let a = Schedule.generate ~profile:Profile.crash_heavy ~n_servers:2 ~horizon:86400.0 in
  let b = Schedule.generate ~profile:Profile.crash_heavy ~n_servers:6 ~horizon:86400.0 in
  for i = 0 to 1 do
    Alcotest.(check (list (pair (float 0.0) (float 0.0))))
      (Printf.sprintf "server %d stable" i)
      (windows_of a i) (windows_of b i)
  done

let test_schedule_windows_sane () =
  let sched =
    Schedule.generate ~profile:Profile.crash_heavy ~n_servers:3
      ~horizon:86400.0
  in
  for i = 0 to 2 do
    let prev_up = ref neg_infinity in
    List.iter
      (fun w ->
        Alcotest.(check bool) "repair >= 1s" true
          (w.Schedule.up_at -. w.Schedule.down_at >= 1.0);
        Alcotest.(check bool) "starts before horizon" true
          (w.Schedule.down_at < 86400.0);
        Alcotest.(check bool) "ordered, disjoint" true
          (w.Schedule.down_at >= !prev_up);
        prev_up := w.Schedule.up_at)
      (Schedule.server_outages sched i)
  done

let test_schedule_covering () =
  let sched =
    Schedule.generate ~profile:Profile.crash_heavy ~n_servers:1
      ~horizon:86400.0
  in
  match Schedule.server_outages sched 0 with
  | [] -> Alcotest.fail "expected at least one outage"
  | w :: _ ->
    let mid = (w.Schedule.down_at +. w.Schedule.up_at) /. 2.0 in
    Alcotest.(check bool) "down at start" true
      (Schedule.server_down sched ~server:0 ~now:w.Schedule.down_at <> None);
    Alcotest.(check bool) "down mid-outage" true
      (Schedule.server_down sched ~server:0 ~now:mid <> None);
    Alcotest.(check bool) "up at up_at" true
      (Schedule.server_down sched ~server:0 ~now:w.Schedule.up_at = None);
    Alcotest.(check bool) "up before outage" true
      (Schedule.server_down sched ~server:0 ~now:(w.Schedule.down_at -. 0.001)
      = None);
    Alcotest.(check bool) "no outage on absent server" true
      (Schedule.server_down sched ~server:5 ~now:mid = None)

let test_none_schedule_empty () =
  let sched =
    Schedule.generate ~profile:Profile.none ~n_servers:4 ~horizon:1e9
  in
  Alcotest.(check int) "no crashes ever" 0 (Schedule.crash_count sched);
  Alcotest.(check (list reject)) "no partitions" [] (Schedule.partitions sched)

(* -- retry/backoff ------------------------------------------------------------ *)

(* Reference model: cumulative doubling (jittered, capped) backoff until
   the sum first reaches the remaining outage time, built from the same
   pure per-attempt step the injector charges. *)
let expected_stall (p : Profile.t) ~server ~remaining =
  let rec go acc n =
    if acc >= remaining then (acc, n)
    else go (acc +. Injector.backoff_step p ~server ~attempt:n) (n + 1)
  in
  go 0.0 0

let test_rpc_delay_backoff () =
  let inj =
    Injector.create ~profile:Profile.crash_heavy ~n_servers:1 ~horizon:86400.0 ()
  in
  let sched = Injector.schedule inj in
  match Schedule.server_outages sched 0 with
  | [] -> Alcotest.fail "expected at least one outage"
  | w :: _ ->
    let now = w.Schedule.down_at +. 0.25 in
    let remaining = w.Schedule.up_at -. now in
    let want_stall, want_retries =
      expected_stall (Injector.profile inj) ~server:0 ~remaining
    in
    let stall = Injector.rpc_delay inj ~server:0 ~now in
    Alcotest.(check (float 1e-9)) "stall is cumulative backoff" want_stall stall;
    Alcotest.(check bool) "stall covers the outage" true (stall >= remaining);
    let st = Injector.stats inj in
    Alcotest.(check int) "retries counted" want_retries st.Injector.rpc_retries;
    Alcotest.(check (float 1e-9)) "stall accumulated" want_stall
      (Injector.rpc_stall_s inj);
    (* Up and reachable: a zero-drop profile charges nothing. *)
    let quiet =
      Injector.create
        ~profile:{ Profile.crash_heavy with rpc_drop_prob = 0.0 }
        ~n_servers:1 ~horizon:86400.0 ()
    in
    Alcotest.(check (float 0.0)) "no outage, no drop: free" 0.0
      (Injector.rpc_delay quiet ~server:0 ~now:(w.Schedule.up_at +. 0.5))

let test_backoff_arithmetic () =
  (* With jitter off the classic doubling arithmetic is exact:
     0.5 + 1.0 = 1.5 >= 1.2 after two retries. *)
  let p =
    {
      Profile.crash_heavy with
      rpc_timeout = 0.5;
      rpc_backoff_max = 30.0;
      rpc_backoff_jitter = 0.0;
    }
  in
  let stall, retries = expected_stall p ~server:0 ~remaining:1.2 in
  Alcotest.(check (float 1e-9)) "stall" 1.5 stall;
  Alcotest.(check int) "retries" 2 retries;
  (* The ceiling kicks in for long outages: 0.5+1+2+4+8+16+30+30... *)
  let stall, retries = expected_stall p ~server:0 ~remaining:100.0 in
  Alcotest.(check (float 1e-9)) "capped stall" 121.5 stall;
  Alcotest.(check int) "capped retries" 9 retries

let test_backoff_jitter_deterministic () =
  let p =
    {
      Profile.crash_heavy with
      rpc_timeout = 0.5;
      rpc_backoff_max = 30.0;
      rpc_backoff_jitter = 0.1;
    }
  in
  let unjittered = { p with Profile.rpc_backoff_jitter = 0.0 } in
  for server = 0 to 3 do
    for attempt = 0 to 9 do
      let step = Injector.backoff_step p ~server ~attempt in
      (* Pure function: same (seed, server, attempt) -> same wait. *)
      Alcotest.(check (float 0.0))
        (Printf.sprintf "deterministic s%d a%d" server attempt)
        step
        (Injector.backoff_step p ~server ~attempt);
      let base = Injector.backoff_step unjittered ~server ~attempt in
      Alcotest.(check bool) "jitter only lengthens" true (step >= base);
      Alcotest.(check bool) "jitter bounded by fraction" true
        (step <= Float.min (base *. 1.1) p.Profile.rpc_backoff_max);
      Alcotest.(check bool) "ceiling holds" true
        (step <= p.Profile.rpc_backoff_max)
    done
  done;
  (* Distinct servers draw from distinct RNG splits: the early (uncapped)
     steps should not all coincide. *)
  let differs = ref false in
  for attempt = 0 to 4 do
    if
      Injector.backoff_step p ~server:0 ~attempt
      <> Injector.backoff_step p ~server:1 ~attempt
    then differs := true
  done;
  Alcotest.(check bool) "per-server splits differ" true !differs;
  (* Deep attempts sit exactly on the ceiling. *)
  Alcotest.(check (float 0.0)) "deep attempt capped" 30.0
    (Injector.backoff_step p ~server:0 ~attempt:20)

let test_backoff_capped_counter () =
  let inj =
    Injector.create ~profile:Profile.crash_heavy ~n_servers:1 ~horizon:86400.0 ()
  in
  let st = Injector.stats inj in
  Alcotest.(check int) "none capped yet" 0 st.backoff_capped;
  let sched = Injector.schedule inj in
  (* An outage long enough that the doubling retry interval must reach
     the ceiling: 0.5+1+2+4+8+16 = 31.5 s of uncapped backoff. *)
  (match
     List.find_opt
       (fun w -> w.Schedule.up_at -. w.Schedule.down_at > 40.0)
       (Schedule.server_outages sched 0)
   with
  | None -> Alcotest.fail "expected a >40s outage in a day of crash_heavy"
  | Some w -> ignore (Injector.rpc_delay inj ~server:0 ~now:w.Schedule.down_at));
  Alcotest.(check bool) "capped steps counted" true (st.backoff_capped > 0);
  Alcotest.(check bool) "only retries are capped" true
    (st.backoff_capped <= st.rpc_retries)

let test_disk_penalty_bounds () =
  let inj =
    Injector.create ~profile:Profile.crash_heavy ~n_servers:1 ~horizon:86400.0 ()
  in
  let p = Injector.profile inj in
  for _ = 1 to 1000 do
    let d = Injector.disk_penalty inj in
    Alcotest.(check bool) "penalty is 0 or the profile's" true
      (d = 0.0 || d = p.Profile.disk_error_penalty)
  done;
  let st = Injector.stats inj in
  Alcotest.(check bool) "some errors at p=1e-3 over 1000 draws is plausible"
    true
    (st.Injector.disk_errors >= 0 && st.Injector.disk_errors <= 1000)

(* -- offline writeback queue -------------------------------------------------- *)

let test_offline_queue_fifo () =
  let inj =
    Injector.create ~profile:Profile.crash_heavy ~n_servers:2 ~horizon:86400.0 ()
  in
  Injector.queue_writeback inj ~server:0 ~file:7 ~index:0 ~bytes:4096;
  Injector.queue_writeback inj ~server:0 ~file:7 ~index:1 ~bytes:4096;
  Injector.queue_writeback inj ~server:0 ~file:9 ~index:0 ~bytes:1024;
  Injector.queue_writeback inj ~server:1 ~file:3 ~index:2 ~bytes:512;
  Alcotest.(check int) "server 0 parked" 9216 (Injector.queued_bytes inj ~server:0);
  Alcotest.(check int) "server 1 parked" 512 (Injector.queued_bytes inj ~server:1);
  let st = Injector.stats inj in
  Alcotest.(check int) "total parked" 9728 st.Injector.offline_queued_bytes;
  let order = ref [] in
  Injector.drain_writebacks inj ~server:0 (fun ~file ~index ~bytes ->
      order := (file, index, bytes) :: !order);
  Alcotest.(check (list (triple int int int)))
    "FIFO replay order"
    [ (7, 0, 4096); (7, 1, 4096); (9, 0, 1024) ]
    (List.rev !order);
  Alcotest.(check int) "server 0 drained" 0 (Injector.queued_bytes inj ~server:0);
  Alcotest.(check int) "server 1 untouched" 512
    (Injector.queued_bytes inj ~server:1);
  Alcotest.(check int) "replayed accounted" 9216 st.Injector.replayed_bytes

(* -- crash loss accounting in the block cache --------------------------------- *)

let make_cache () =
  let writebacks = ref 0 in
  let cache =
    Bc.create
      ~config:
        {
          Bc.block_size = bs;
          writeback_delay = 30.0;
          capacity_blocks = 64;
          min_capacity_blocks = 1;
        }
      {
        Bc.fetch = (fun ~cls:_ ~file:_ ~index:_ ~bytes:_ -> ());
        writeback = (fun ~file:_ ~index:_ ~bytes:_ ~reason:_ -> incr writebacks);
      }
  in
  (cache, writebacks)

let dirty cache ~file ~len =
  Bc.write cache ~now:0.0 ~cls:Bc.Class_file ~migrated:false
    ~file:(File.of_int file) ~file_size:len ~off:0 ~len

let test_cache_crash_loses_dirty () =
  let cache, writebacks = make_cache () in
  dirty cache ~file:1 ~len:(2 * bs);
  dirty cache ~file:2 ~len:1000;
  Alcotest.(check int) "dirty bytes visible" ((2 * bs) + 1000)
    (Bc.dirty_bytes cache);
  Alcotest.(check (list int)) "dirty files listed" [ 1; 2 ]
    (Bc.dirty_file_ids cache);
  let lost = Bc.crash cache ~now:10.0 in
  Alcotest.(check int) "crash loses exactly the dirty bytes"
    ((2 * bs) + 1000) lost;
  Alcotest.(check int) "nothing dirty after crash" 0 (Bc.dirty_bytes cache);
  Alcotest.(check (list reject)) "no dirty files after crash" []
    (Bc.dirty_file_ids cache);
  Alcotest.(check int) "crash never writes back" 0 !writebacks;
  (* Crash loss is accounted by the injector, not as a delete-before-
     writeback saving. *)
  Alcotest.(check int) "dirty_bytes_discarded untouched" 0
    (Bc.stats cache).Bc.dirty_bytes_discarded;
  Alcotest.(check int) "second crash loses nothing" 0 (Bc.crash cache ~now:11.0)

(* -- network guard (regression) ----------------------------------------------- *)

let test_network_rpc_negative_bytes () =
  let net = Dfs_sim.Network.create () in
  Alcotest.check_raises "negative bytes rejected"
    (Invalid_argument "Network.rpc: negative bytes (-1)") (fun () ->
      ignore (Dfs_sim.Network.rpc net ~kind:"read" ~bytes:(-1)));
  Alcotest.(check bool) "zero bytes fine" true
    (Dfs_sim.Network.rpc net ~kind:"read" ~bytes:0 >= 0.0)

(* -- recovery-stats table ----------------------------------------------------- *)

let test_recovery_stats_totals () =
  (* [crashes] one-minute outages that lose [lost] bytes between them,
     each followed by a reboot, and a recovery storm of 20 RPCs. *)
  let mk crashes lost =
    let inj =
      Injector.create ~profile:Profile.crash_heavy ~n_servers:1 ~horizon:86400.0 ()
    in
    for i = 1 to crashes do
      let now = 3600.0 *. float_of_int i in
      Injector.note_crash inj ~server:0 ~now ~duration:60.0
        ~lost_bytes:(if i = 1 then lost else 0);
      Injector.note_reboot inj ~server:0 ~now:(now +. 60.0)
    done;
    Injector.note_recovery_rpcs inj 20;
    inj
  in
  let t =
    Dfs_analysis.Recovery_stats.analyze
      [ ("trace1", mk 2 4096); ("trace2", mk 3 8192) ]
  in
  Alcotest.(check int) "two rows" 2 (List.length t.Dfs_analysis.Recovery_stats.rows);
  let total = t.Dfs_analysis.Recovery_stats.total in
  Alcotest.(check int) "crashes summed" 5 total.Dfs_analysis.Recovery_stats.crashes;
  Alcotest.(check (float 1e-9)) "lost KB summed" 12.0
    total.Dfs_analysis.Recovery_stats.lost_kb;
  Alcotest.(check (float 1e-9)) "lost per crash" 2.4
    total.Dfs_analysis.Recovery_stats.lost_per_crash_kb;
  Alcotest.(check int) "recovery storm summed" 40
    total.Dfs_analysis.Recovery_stats.recovery_rpcs;
  (* The table renders without raising. *)
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Dfs_analysis.Recovery_stats.pp fmt t;
  Format.pp_print_flush fmt ();
  Alcotest.(check bool) "table mentions both runs" true
    (let s = Buffer.contents buf in
     let has sub =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     has "trace1" && has "trace2" && has "total")

(* -- trace reader fd hygiene (regression) ------------------------------------- *)

let open_fd_count () = Array.length (Sys.readdir "/proc/self/fd")

let test_reader_releases_fd () =
  if not (Sys.file_exists "/proc/self/fd") then ()
  else begin
    let good = Filename.temp_file "dfs_fault_trace" ".log" in
    let bad = Filename.temp_file "dfs_fault_trace" ".log" in
    let oc = open_out good in
    output_string oc (Dfs_trace.Codec.header ^ "\n");
    close_out oc;
    let oc = open_out bad in
    output_string oc (Dfs_trace.Codec.header ^ "\nnot a record\n");
    close_out oc;
    let before = open_fd_count () in
    for _ = 1 to 64 do
      (match Dfs_trace.Reader.batch_of_file good with
      | Ok b when Dfs_trace.Record_batch.length b = 0 -> ()
      | Ok b ->
        Alcotest.failf "expected empty trace, got %d records"
          (Dfs_trace.Record_batch.length b)
      | Error e -> Alcotest.failf "unexpected parse error: %s" e);
      match Dfs_trace.Reader.batch_of_file bad with
      | Ok _ -> Alcotest.fail "bad trace accepted"
      | Error _ -> ()
    done;
    let after = open_fd_count () in
    Sys.remove good;
    Sys.remove bad;
    Alcotest.(check int) "no descriptor leak across 128 reads" before after
  end

(* -- end to end: crash-heavy run ---------------------------------------------- *)

let crashy_preset () =
  Presets.with_faults
    (Presets.scaled (Presets.trace 1) ~factor:0.01)
    Profile.crash_heavy

let run_injector () =
  let cluster, _driver = Presets.run (crashy_preset ()) in
  match Cluster.faults cluster with
  | None -> Alcotest.fail "fault profile did not build an injector"
  | Some inj -> (cluster, inj)

let test_recovery_storm_e2e () =
  let cluster, inj = run_injector () in
  let st = Injector.stats inj and crashes = Injector.crashes inj in
  Alcotest.(check bool) "at least one crash" true (crashes >= 1);
  (* A server that crashes near the end of the run may still be down when
     the run stops: at most one reboot per server can be outstanding. *)
  Alcotest.(check bool) "reboots happened" true (st.Injector.reboots >= 1);
  Alcotest.(check bool) "at most one outstanding reboot per server" true
    (crashes - st.Injector.reboots >= 0 && crashes - st.Injector.reboots <= 4);
  Alcotest.(check bool) "downtime accrued" true (Injector.downtime_s inj > 0.0);
  Alcotest.(check bool) "recovery storm happened" true
    (st.Injector.recovery_rpcs > 0);
  Alcotest.(check bool) "clients stalled on retries" true
    (st.Injector.rpc_retries > 0 && Injector.rpc_stall_s inj > 0.0);
  Alcotest.(check bool) "delayed-write bytes were lost" true
    (Injector.lost_bytes inj > 0);
  Alcotest.(check bool) "writebacks were parked while a server was down" true
    (st.Injector.offline_queued_bytes > 0);
  Alcotest.(check bool) "replay never exceeds what was parked" true
    (st.Injector.replayed_bytes <= st.Injector.offline_queued_bytes);
  Alcotest.(check bool) "trace survived the chaos" true
    (Dfs_trace.Sink.length (Cluster.merged_chunks cluster) > 0)

let test_faulty_run_deterministic () =
  let stats () =
    let _, inj = run_injector () in
    ( Injector.stats inj,
      Injector.crashes inj,
      Injector.downtime_s inj,
      Injector.lost_bytes inj,
      Injector.rpc_stall_s inj )
  in
  Alcotest.(check bool) "identical stats across runs" true (stats () = stats ())

let test_faults_off_by_default () =
  let cluster =
    Cluster.create
      {
        Cluster.default_config with
        n_clients = 2;
        n_servers = 1;
        seed = 5;
        simulate_infrastructure = false;
      }
  in
  Alcotest.(check bool) "no injector" true (Cluster.faults cluster = None)

let suite =
  [
    Alcotest.test_case "profile names" `Quick test_profile_names;
    Alcotest.test_case "schedule deterministic" `Quick test_schedule_deterministic;
    Alcotest.test_case "schedule prefix stable" `Quick
      test_schedule_prefix_stable_in_n_servers;
    Alcotest.test_case "schedule windows sane" `Quick test_schedule_windows_sane;
    Alcotest.test_case "schedule covering" `Quick test_schedule_covering;
    Alcotest.test_case "none schedule empty" `Quick test_none_schedule_empty;
    Alcotest.test_case "rpc delay backoff" `Quick test_rpc_delay_backoff;
    Alcotest.test_case "backoff arithmetic" `Quick test_backoff_arithmetic;
    Alcotest.test_case "backoff jitter deterministic" `Quick
      test_backoff_jitter_deterministic;
    Alcotest.test_case "backoff capped counter" `Quick
      test_backoff_capped_counter;
    Alcotest.test_case "disk penalty bounds" `Quick test_disk_penalty_bounds;
    Alcotest.test_case "offline queue fifo" `Quick test_offline_queue_fifo;
    Alcotest.test_case "cache crash loses dirty" `Quick
      test_cache_crash_loses_dirty;
    Alcotest.test_case "network rpc negative bytes" `Quick
      test_network_rpc_negative_bytes;
    Alcotest.test_case "recovery stats totals" `Quick test_recovery_stats_totals;
    Alcotest.test_case "reader releases fd" `Quick test_reader_releases_fd;
    Alcotest.test_case "recovery storm e2e" `Slow test_recovery_storm_e2e;
    Alcotest.test_case "faulty run deterministic" `Slow
      test_faulty_run_deterministic;
    Alcotest.test_case "faults off by default" `Quick test_faults_off_by_default;
  ]
