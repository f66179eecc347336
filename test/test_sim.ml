(* Tests for Dfs_sim: the event engine, network/disk models, traffic taps,
   file-system state, the server's consistency protocol, and the client's
   cache/paging integration. *)

open Dfs_sim
module Ids = Dfs_trace.Ids
module Record = Dfs_trace.Record
module Bc = Dfs_cache.Block_cache

let bs = Dfs_util.Units.block_size

(* -- engine ------------------------------------------------------------------ *)

let test_engine_event_order () =
  let e = Engine.create () in
  let order = ref [] in
  ignore (Engine.schedule e ~at:2.0 (fun () -> order := 2 :: !order));
  ignore (Engine.schedule e ~at:1.0 (fun () -> order := 1 :: !order));
  ignore (Engine.schedule e ~at:3.0 (fun () -> order := 3 :: !order));
  Engine.run_until e 10.0;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !order)

let test_engine_horizon () =
  let e = Engine.create () in
  let fired = ref false in
  ignore (Engine.schedule e ~at:5.0 (fun () -> fired := true));
  Engine.run_until e 4.0;
  Alcotest.(check bool) "beyond horizon not run" false !fired;
  Alcotest.(check (float 1e-9)) "clock at horizon" 4.0 (Engine.now e);
  Engine.run_until e 6.0;
  Alcotest.(check bool) "now fired" true !fired

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~at:1.0 (fun () -> fired := true) in
  Engine.cancel e h;
  Engine.run_until e 2.0;
  Alcotest.(check bool) "cancelled" false !fired

let test_engine_cancel_compacts_queue () =
  (* A timeout-heavy workload: schedule 1000, cancel all but 10.  Lazy
     deletion alone would leave the queue at 1000 until the horizon;
     compaction must keep the heap tracking live work instead. *)
  let e = Engine.create () in
  let fired = ref 0 in
  let handles =
    List.init 1000 (fun i ->
        Engine.schedule e ~at:(float_of_int (i + 1)) (fun () -> incr fired))
  in
  List.iteri (fun i h -> if i >= 10 then Engine.cancel e h) handles;
  Alcotest.(check int) "live events tracked" 10 (Engine.live_pending e);
  Alcotest.(check bool)
    (Printf.sprintf "queue compacted (pending %d)" (Engine.pending e))
    true
    (Engine.pending e < 100);
  Engine.run_until e 2000.0;
  Alcotest.(check int) "only live events ran" 10 !fired;
  Alcotest.(check int) "drained" 0 (Engine.pending e)

let test_engine_cancel_idempotent_counts () =
  let e = Engine.create () in
  let h = Engine.schedule e ~at:1.0 (fun () -> ()) in
  Engine.cancel e h;
  Engine.cancel e h;
  Alcotest.(check int) "counted once" 0 (Engine.live_pending e);
  Engine.run_until e 2.0;
  Alcotest.(check int) "empty after run" 0 (Engine.pending e)

let test_engine_fifo_ties () =
  let e = Engine.create () in
  let order = ref [] in
  ignore (Engine.schedule e ~at:1.0 (fun () -> order := "a" :: !order));
  ignore (Engine.schedule e ~at:1.0 (fun () -> order := "b" :: !order));
  Engine.run_until e 2.0;
  Alcotest.(check (list string)) "FIFO ties" [ "a"; "b" ] (List.rev !order)

let test_engine_every () =
  let e = Engine.create () in
  let count = ref 0 in
  Engine.every e ~interval:1.0 (fun () -> incr count);
  Engine.run_until e 5.5;
  Alcotest.(check int) "five firings" 5 !count

let test_engine_schedule_during_run () =
  let e = Engine.create () in
  let fired = ref false in
  ignore
    (Engine.schedule e ~at:1.0 (fun () ->
         ignore (Engine.schedule_in e ~delay:1.0 (fun () -> fired := true))));
  Engine.run_until e 3.0;
  Alcotest.(check bool) "nested scheduling" true !fired

let test_engine_process_sleep () =
  let e = Engine.create () in
  let marks = ref [] in
  Engine.spawn e (fun () ->
      marks := ("start", Engine.now e) :: !marks;
      Engine.sleep 2.0;
      marks := ("mid", Engine.now e) :: !marks;
      Engine.sleep 3.0;
      marks := ("end", Engine.now e) :: !marks);
  Engine.run_until e 10.0;
  match List.rev !marks with
  | [ ("start", t0); ("mid", t1); ("end", t2) ] ->
    Alcotest.(check (float 1e-9)) "t0" 0.0 t0;
    Alcotest.(check (float 1e-9)) "t1" 2.0 t1;
    Alcotest.(check (float 1e-9)) "t2" 5.0 t2
  | _ -> Alcotest.fail "wrong marks"

let test_engine_many_processes_interleave () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 3 do
    Engine.spawn e (fun () ->
        Engine.sleep (float_of_int i);
        log := i :: !log;
        Engine.sleep 10.0;
        log := (10 * i) :: !log)
  done;
  Engine.run_until e 20.0;
  Alcotest.(check (list int)) "interleaved" [ 1; 2; 3; 10; 20; 30 ]
    (List.rev !log)

let test_engine_sleep_outside_process () =
  Alcotest.check_raises "sleep outside process"
    (Invalid_argument "Engine.sleep: called outside a spawned process")
    (fun () -> Engine.sleep 1.0)

(* A process on engine A runs engine B to its horizon: B's processes
   sleep on B's clock, and A's process then sleeps on A's. *)
let test_engine_nested_engines_isolated () =
  let a = Engine.create () in
  let seen = ref [] in
  let note who t = seen := (who, t) :: !seen in
  Engine.spawn a ~at:1.0 (fun () ->
      let b = Engine.create () in
      for i = 1 to 2 do
        Engine.spawn b (fun () ->
            note (Printf.sprintf "b%d start" i) (Engine.now b);
            Engine.sleep (float_of_int (10 * i));
            note (Printf.sprintf "b%d woke" i) (Engine.now b))
      done;
      Engine.run_until b 100.0;
      note "b horizon" (Engine.now b);
      note "a after b" (Engine.now a);
      Engine.sleep 5.0;
      note "a woke" (Engine.now a));
  Engine.run_until a 50.0;
  Alcotest.(check (list (pair string (float 1e-9))))
    "each process on its own clock"
    [
      ("b1 start", 0.0);
      ("b2 start", 0.0);
      ("b1 woke", 10.0);
      ("b2 woke", 20.0);
      ("b horizon", 100.0);
      ("a after b", 1.0);
      ("a woke", 6.0);
    ]
    (List.rev !seen);
  Alcotest.(check int) "A ran its process's two events" 2
    (Engine.events_executed a)

let test_engine_spawn_at () =
  let e = Engine.create () in
  let t = ref (-1.0) in
  Engine.spawn e ~at:5.0 (fun () -> t := Engine.now e);
  Engine.run_until e 10.0;
  Alcotest.(check (float 1e-9)) "delayed start" 5.0 !t

(* -- network / disk / traffic ---------------------------------------------------- *)

let test_network_accounting () =
  let n = Network.create () in
  let lat = Network.rpc n ~kind:"fetch" ~bytes:4096 in
  Alcotest.(check bool) "latency positive" true (lat > 0.0);
  Alcotest.(check int) "total rpcs" 1 (Network.total_rpcs n);
  Alcotest.(check int) "bytes" 4096 (Network.total_bytes n);
  (* serialization: 4 KB at 1.25 MB/s is ~3.3 ms plus 2 ms latency *)
  Alcotest.(check bool) "roughly 5ms" true (lat > 0.004 && lat < 0.008)

let test_network_utilization () =
  let n = Network.create () in
  ignore (Network.rpc n ~kind:"x" ~bytes:125_000);
  Alcotest.(check (float 1e-6)) "10% of a second" 0.1
    (Network.utilization n ~elapsed:1.0)

let test_disk_accounting () =
  let d = Disk.create () in
  let t = Disk.read d ~bytes:4096 in
  Alcotest.(check bool) "dominated by access time" true (t > 0.02 && t < 0.04);
  ignore (Disk.write d ~bytes:100);
  Alcotest.(check int) "reads" 1 (Disk.reads d);
  Alcotest.(check int) "writes" 1 (Disk.writes d);
  Alcotest.(check int) "bytes read" 4096 (Disk.bytes_read d);
  Alcotest.(check int) "bytes written" 100 (Disk.bytes_written d)

let test_traffic_categories () =
  let t = Traffic.create () in
  Traffic.add_read t Traffic.File_data 100;
  Traffic.add_write t Traffic.File_data 50;
  Traffic.add_read t Traffic.Paging_backing 25;
  Alcotest.(check int) "file read" 100 (Traffic.read_bytes t Traffic.File_data);
  Alcotest.(check int) "file write" 50 (Traffic.write_bytes t Traffic.File_data);
  Alcotest.(check int) "total read" 125 (Traffic.total_read t);
  Alcotest.(check int) "total" 175 (Traffic.total t);
  Alcotest.(check bool) "file cacheable" true (Traffic.cacheable Traffic.File_data);
  Alcotest.(check bool) "backing uncacheable" false
    (Traffic.cacheable Traffic.Paging_backing)

let test_traffic_merge () =
  let a = Traffic.create () and b = Traffic.create () in
  Traffic.add_read a Traffic.File_data 10;
  Traffic.add_read b Traffic.File_data 20;
  Traffic.add_write b Traffic.Shared 5;
  let m = Traffic.merge a b in
  Alcotest.(check int) "merged reads" 30 (Traffic.read_bytes m Traffic.File_data);
  Alcotest.(check int) "merged total" 35 (Traffic.total m)

(* -- fs_state ---------------------------------------------------------------------- *)

let test_fs_state_create_find () =
  let rng = Dfs_util.Rng.create 1 in
  let fs = Fs_state.create ~n_servers:4 ~rng () in
  let info = Fs_state.create_file fs ~now:1.0 ~size:100 () in
  Alcotest.(check int) "size" 100 info.size;
  Alcotest.(check bool) "exists" true info.exists;
  (match Fs_state.find fs info.id with
  | Some i -> Alcotest.(check bool) "same info" true (i == info)
  | None -> Alcotest.fail "not found");
  Alcotest.(check int) "live" 1 (Fs_state.live_files fs)

let test_fs_state_delete_recreate () =
  let rng = Dfs_util.Rng.create 1 in
  let fs = Fs_state.create ~n_servers:1 ~rng () in
  let info = Fs_state.create_file fs ~now:0.0 ~size:100 () in
  Fs_state.delete fs info.id;
  Alcotest.(check bool) "deleted" false info.exists;
  Alcotest.(check int) "size zeroed" 0 info.size;
  Alcotest.(check int) "live 0" 0 (Fs_state.live_files fs);
  let v = info.version in
  Fs_state.recreate fs ~now:5.0 info.id;
  Alcotest.(check bool) "recreated" true info.exists;
  Alcotest.(check bool) "version bumped" true (info.version > v);
  Alcotest.(check (float 1e-9)) "created_at updated" 5.0 info.created_at

let test_fs_state_server_weights () =
  let rng = Dfs_util.Rng.create 42 in
  let fs = Fs_state.create ~n_servers:4 ~rng () in
  let counts = Array.make 4 0 in
  for _ = 1 to 2000 do
    let info = Fs_state.create_file fs ~now:0.0 () in
    let s = Ids.Server.to_int info.server in
    counts.(s) <- counts.(s) + 1
  done;
  Alcotest.(check bool) "server 0 dominates" true
    (counts.(0) > counts.(1) + counts.(2) + counts.(3))

(* -- server + client harness --------------------------------------------------------- *)

type rig = {
  engine : Engine.t;
  fs : Fs_state.t;
  server : Server.t;
  clients : Client.t array;
  log : Record.t list ref;
}

let make_rig ?(n_clients = 2) () =
  let engine = Engine.create () in
  let rng = Dfs_util.Rng.create 7 in
  let fs = Fs_state.create ~n_servers:1 ~rng () in
  let network = Network.create () in
  let log = ref [] in
  let server =
    Server.create ~id:(Ids.Server.of_int 0) ~config:Server.default_config ~fs
      ~network
      ~log:(fun r -> log := r :: !log)
      ()
  in
  let clients =
    Array.init n_clients (fun i ->
        Client.create ~engine ~id:(Ids.Client.of_int i) ~fs
          ~server_of:(fun _ -> server)
          ~paging_server:server ~sleep:false ())
  in
  Array.iter
    (fun c -> Server.register_client server (Client.id c) (Client.hooks c))
    clients;
  { engine; fs; server; clients; log }

let cred rig i =
  Cred.make
    ~user:(Ids.User.of_int i)
    ~pid:(Ids.Process.of_int (100 + i))
    ~client:(Client.id rig.clients.(i))
    ~migrated:false

let test_client_read_write_roundtrip () =
  let rig = make_rig () in
  let c = rig.clients.(0) in
  let cred0 = cred rig 0 in
  let info = Fs_state.create_file rig.fs ~now:0.0 () in
  let fd = Client.open_file c ~cred:cred0 ~info ~mode:Record.Write_only ~created:true in
  Alcotest.(check int) "write grows file" 1000 (Client.write c fd ~len:1000);
  Alcotest.(check int) "size" 1000 info.size;
  Client.close c fd;
  let fd = Client.open_file c ~cred:cred0 ~info ~mode:Record.Read_only ~created:false in
  Alcotest.(check int) "read back" 1000 (Client.read c fd ~len:5000);
  Alcotest.(check int) "eof" 0 (Client.read c fd ~len:10);
  Client.close c fd;
  (* records logged: 2 opens + 2 closes *)
  let opens =
    List.length
      (List.filter
         (fun (r : Record.t) ->
           match r.kind with Record.Open _ -> true | _ -> false)
         !(rig.log))
  in
  Alcotest.(check int) "opens logged" 2 opens

let test_client_seek_logged () =
  let rig = make_rig () in
  let c = rig.clients.(0) in
  let info = Fs_state.create_file rig.fs ~now:0.0 ~size:10000 () in
  let fd = Client.open_file c ~cred:(cred rig 0) ~info ~mode:Record.Read_only ~created:false in
  Client.seek c fd ~pos:5000;
  Alcotest.(check int) "position moved" 5000 (Client.fd_pos c fd);
  ignore (Client.read c fd ~len:1000);
  Client.close c fd;
  let seeks =
    List.filter
      (fun (r : Record.t) ->
        match r.kind with Record.Reposition _ -> true | _ -> false)
      !(rig.log)
  in
  (match seeks with
  | [ r ] -> (
    match r.kind with
    | Record.Reposition { pos_before; pos_after } ->
      Alcotest.(check int) "pos before" 0 pos_before;
      Alcotest.(check int) "pos after" 5000 pos_after
    | _ -> assert false)
  | _ -> Alcotest.fail "one reposition expected")

let test_close_carries_totals () =
  let rig = make_rig () in
  let c = rig.clients.(0) in
  let info = Fs_state.create_file rig.fs ~now:0.0 ~size:2048 () in
  let fd = Client.open_file c ~cred:(cred rig 0) ~info ~mode:Record.Read_write ~created:false in
  ignore (Client.read c fd ~len:2048);
  Client.seek c fd ~pos:0;
  ignore (Client.write c fd ~len:100);
  Client.close c fd;
  let close =
    List.find_opt
      (fun (r : Record.t) ->
        match r.kind with Record.Close _ -> true | _ -> false)
      !(rig.log)
  in
  match close with
  | Some { kind = Record.Close { bytes_read; bytes_written; final_pos; _ }; _ } ->
    Alcotest.(check int) "bytes read" 2048 bytes_read;
    Alcotest.(check int) "bytes written" 100 bytes_written;
    Alcotest.(check int) "final pos" 100 final_pos
  | _ -> Alcotest.fail "close record missing"

let test_recall_on_cross_client_open () =
  let rig = make_rig () in
  let c0 = rig.clients.(0) and c1 = rig.clients.(1) in
  let info = Fs_state.create_file rig.fs ~now:0.0 () in
  (* client 0 writes and closes; dirty data lingers under delayed write *)
  let fd = Client.open_file c0 ~cred:(cred rig 0) ~info ~mode:Record.Write_only ~created:true in
  ignore (Client.write c0 fd ~len:1000);
  Client.close c0 fd;
  Alcotest.(check int) "dirty at client 0" 1 (Bc.dirty_blocks (Client.cache c0));
  (* client 1 opens: the server must recall the dirty data *)
  let fd1 = Client.open_file c1 ~cred:(cred rig 1) ~info ~mode:Record.Read_only ~created:false in
  Alcotest.(check int) "recall happened" 1 (Server.consistency rig.server).recalls;
  Alcotest.(check int) "client 0 clean" 0 (Bc.dirty_blocks (Client.cache c0));
  ignore (Client.read c1 fd1 ~len:1000);
  Client.close c1 fd1

let test_no_recall_same_client () =
  let rig = make_rig () in
  let c0 = rig.clients.(0) in
  let info = Fs_state.create_file rig.fs ~now:0.0 () in
  let fd = Client.open_file c0 ~cred:(cred rig 0) ~info ~mode:Record.Write_only ~created:true in
  ignore (Client.write c0 fd ~len:100);
  Client.close c0 fd;
  let fd = Client.open_file c0 ~cred:(cred rig 0) ~info ~mode:Record.Read_only ~created:false in
  Alcotest.(check int) "no recall for the writer itself" 0
    (Server.consistency rig.server).recalls;
  Client.close c0 fd

let test_write_sharing_disables_caching () =
  let rig = make_rig () in
  let c0 = rig.clients.(0) and c1 = rig.clients.(1) in
  let info = Fs_state.create_file rig.fs ~now:0.0 ~size:8192 () in
  let fd0 = Client.open_file c0 ~cred:(cred rig 0) ~info ~mode:Record.Write_only ~created:false in
  ignore (Client.write c0 fd0 ~len:100);
  (* second client opens for read: concurrent write-sharing *)
  let fd1 = Client.open_file c1 ~cred:(cred rig 1) ~info ~mode:Record.Read_only ~created:false in
  Alcotest.(check int) "sharing detected" 1
    (Server.consistency rig.server).sharing_opens;
  Alcotest.(check bool) "file uncacheable" false
    (Server.is_cacheable rig.server info.id);
  (* subsequent I/O passes through and is logged as shared events *)
  ignore (Client.read c1 fd1 ~len:200);
  ignore (Client.write c0 fd0 ~len:50);
  let shared_reads =
    List.length
      (List.filter
         (fun (r : Record.t) ->
           match r.kind with Record.Shared_read _ -> true | _ -> false)
         !(rig.log))
  in
  let shared_writes =
    List.length
      (List.filter
         (fun (r : Record.t) ->
           match r.kind with Record.Shared_write _ -> true | _ -> false)
         !(rig.log))
  in
  Alcotest.(check int) "shared read logged" 1 shared_reads;
  Alcotest.(check int) "shared write logged" 1 shared_writes;
  (* caching resumes only when everyone has closed *)
  Client.close c1 fd1;
  Alcotest.(check bool) "still uncacheable" false
    (Server.is_cacheable rig.server info.id);
  Client.close c0 fd0;
  Alcotest.(check bool) "cacheable again" true
    (Server.is_cacheable rig.server info.id)

let test_stale_cache_invalidated_by_version () =
  let rig = make_rig () in
  let c0 = rig.clients.(0) and c1 = rig.clients.(1) in
  let info = Fs_state.create_file rig.fs ~now:0.0 ~size:4096 () in
  (* client 1 reads and caches the file *)
  let fd = Client.open_file c1 ~cred:(cred rig 1) ~info ~mode:Record.Read_only ~created:false in
  ignore (Client.read c1 fd ~len:4096);
  Client.close c1 fd;
  Alcotest.(check int) "cached" 1 (Bc.size (Client.cache c1));
  (* client 0 rewrites the file *)
  let fd = Client.open_file c0 ~cred:(cred rig 0) ~info ~mode:Record.Write_only ~created:false in
  ignore (Client.write c0 fd ~len:4096);
  Client.close c0 fd;
  (* client 1 reopens: version mismatch flushes its stale block *)
  let misses_before = (Bc.stats (Client.cache c1)).all.read_misses in
  let fd = Client.open_file c1 ~cred:(cred rig 1) ~info ~mode:Record.Read_only ~created:false in
  ignore (Client.read c1 fd ~len:4096);
  Client.close c1 fd;
  Alcotest.(check int) "stale block refetched" (misses_before + 1)
    (Bc.stats (Client.cache c1)).all.read_misses

let test_delete_truncate_logged () =
  let rig = make_rig () in
  let c = rig.clients.(0) in
  let info = Fs_state.create_file rig.fs ~now:0.0 ~size:500 () in
  Client.truncate c ~cred:(cred rig 0) ~info;
  Alcotest.(check int) "size zero" 0 info.size;
  Client.delete c ~cred:(cred rig 0) ~info;
  Alcotest.(check bool) "gone" false info.exists;
  let kinds = List.map (fun (r : Record.t) -> Record.kind_name r.kind) !(rig.log) in
  Alcotest.(check bool) "truncate logged" true (List.mem "truncate" kinds);
  Alcotest.(check bool) "delete logged" true (List.mem "delete" kinds)

let test_dir_read_uncacheable () =
  let rig = make_rig () in
  let c = rig.clients.(0) in
  let dir = Fs_state.create_file rig.fs ~now:0.0 ~dir:true ~size:640 () in
  Client.read_dir c ~cred:(cred rig 0) ~info:dir;
  Alcotest.(check int) "client cache untouched" 0 (Bc.size (Client.cache c));
  Alcotest.(check int) "directory tap" 640
    (Traffic.read_bytes (Client.traffic c) Traffic.Directory);
  Alcotest.(check bool) "dir-read logged" true
    (List.exists
       (fun (r : Record.t) ->
         match r.kind with Record.Dir_read _ -> true | _ -> false)
       !(rig.log))

let test_exec_process_paging_traffic () =
  let rig = make_rig () in
  let c = rig.clients.(0) in
  let exe = Fs_state.create_file rig.fs ~now:0.0 ~size:(10 * bs) () in
  Client.exec_process c ~cred:(cred rig 0) ~exe ~code_bytes:(6 * bs)
    ~data_bytes:(2 * bs);
  Alcotest.(check int) "paging tap" (8 * bs)
    (Traffic.read_bytes (Client.traffic c) Traffic.Paging_cached);
  Alcotest.(check int) "paging class in cache" (8 * bs)
    (Bc.stats (Client.cache c)).paging.bytes_read;
  Client.exit_process c ~cred:(cred rig 0)

let test_swap_backing_traffic () =
  let rig = make_rig () in
  let c = rig.clients.(0) in
  let exe = Fs_state.create_file rig.fs ~now:0.0 ~size:bs () in
  let cr = cred rig 0 in
  Client.exec_process c ~cred:cr ~exe ~code_bytes:bs ~data_bytes:bs;
  Client.grow_process c ~cred:cr ~heap_bytes:(4 * bs);
  Client.swap_out_process c ~cred:cr ~fraction:1.0;
  Alcotest.(check int) "backing writes" (5 * bs)
    (Traffic.write_bytes (Client.traffic c) Traffic.Paging_backing);
  Client.swap_in_process c ~cred:cr ~fraction:1.0;
  Alcotest.(check int) "backing reads" (5 * bs)
    (Traffic.read_bytes (Client.traffic c) Traffic.Paging_backing)

let test_adjust_memory_respects_floor_and_ceiling () =
  let rig = make_rig () in
  let c = rig.clients.(0) in
  Client.adjust_memory c ~now:0.0;
  let cfg = Client.config c in
  let cap_bytes = Bc.capacity (Client.cache c) * bs in
  Alcotest.(check bool) "at most the ceiling" true
    (float_of_int cap_bytes
    <= (cfg.max_cache_fraction *. float_of_int cfg.memory_bytes) +. float_of_int bs);
  Alcotest.(check bool) "at least the floor" true
    (cap_bytes >= cfg.min_cache_bytes)

let test_server_traffic_tap () =
  let rig = make_rig () in
  let c = rig.clients.(0) in
  let info = Fs_state.create_file rig.fs ~now:0.0 ~size:(2 * bs) () in
  let fd = Client.open_file c ~cred:(cred rig 0) ~info ~mode:Record.Read_only ~created:false in
  ignore (Client.read c fd ~len:(2 * bs));
  Client.close c fd;
  Alcotest.(check int) "server saw the fetches" (2 * bs)
    (Traffic.read_bytes (Server.traffic rig.server) Traffic.File_data)

let test_take_activity () =
  let rig = make_rig () in
  let c = rig.clients.(0) in
  Alcotest.(check bool) "idle" false (Client.take_activity c);
  let info = Fs_state.create_file rig.fs ~now:0.0 ~size:10 () in
  let fd = Client.open_file c ~cred:(cred rig 0) ~info ~mode:Record.Read_only ~created:false in
  Client.close c fd;
  Alcotest.(check bool) "active" true (Client.take_activity c);
  Alcotest.(check bool) "flag consumed" false (Client.take_activity c)

(* -- counters ------------------------------------------------------------------------ *)

let test_counters_grouping () =
  let cs = Counters.create () in
  let sample t client =
    {
      Counters.time = t;
      client = Ids.Client.of_int client;
      cache_bytes = 0;
      cache_capacity_bytes = 0;
      vm_pages = 0;
      active = true;
      rebooted = false;
    }
  in
  Counters.record cs (sample 1.0 0);
  Counters.record cs (sample 2.0 1);
  Counters.record cs (sample 3.0 0);
  Alcotest.(check int) "count" 3 (Counters.count cs);
  let by = Counters.by_client cs in
  Alcotest.(check int) "two clients" 2 (List.length by);
  let c0 = List.assoc (Ids.Client.of_int 0) by in
  Alcotest.(check (list (float 1e-9))) "chronological" [ 1.0; 3.0 ]
    (List.map (fun (s : Counters.sample) -> s.time) c0)

let test_fsync_priced_on_cluster_network () =
  (* A cluster on a slow network: the synchronous write-through costs one
     configured RPC latency per block plus the bytes at the configured
     bandwidth, not the default Ethernet's. *)
  let net =
    { Network.bandwidth = 1e5; rpc_latency = 0.01; remote_latency = 0.05 }
  in
  let cluster =
    Cluster.create
      {
        Cluster.default_config with
        n_clients = 1;
        n_servers = 1;
        network_config = net;
        simulate_infrastructure = false;
      }
  in
  let engine = Cluster.engine cluster in
  let c = Cluster.client cluster 0 in
  let info = Fs_state.create_file (Cluster.fs cluster) ~now:0.0 () in
  let cred =
    Cred.make ~user:(Ids.User.of_int 1) ~pid:(Ids.Process.of_int 100)
      ~client:(Cluster.client_id cluster 0) ~migrated:false
  in
  let elapsed = ref nan in
  Engine.spawn engine (fun () ->
      let fd =
        Client.open_file c ~cred ~info ~mode:Record.Write_only ~created:true
      in
      ignore (Client.write c fd ~len:10_000);
      let t0 = Engine.now engine in
      Client.fsync c fd;
      elapsed := Engine.now engine -. t0);
  Engine.run_until engine 1.0;
  (* 10,000 bytes dirty three 4-KByte blocks *)
  let expected =
    (3.0 *. net.rpc_latency)
    +. (10_000.0 /. net.bandwidth)
    +. (Client.config c).syscall_overhead
  in
  Alcotest.(check (float 1e-9)) "fsync latency" expected !elapsed

let suite =
  [
    ("engine event order", `Quick, test_engine_event_order);
    ("engine horizon", `Quick, test_engine_horizon);
    ("engine cancel", `Quick, test_engine_cancel);
    ("engine cancel compacts queue", `Quick, test_engine_cancel_compacts_queue);
    ("engine cancel idempotent", `Quick, test_engine_cancel_idempotent_counts);
    ("engine FIFO ties", `Quick, test_engine_fifo_ties);
    ("engine every", `Quick, test_engine_every);
    ("engine nested scheduling", `Quick, test_engine_schedule_during_run);
    ("engine process sleep", `Quick, test_engine_process_sleep);
    ("engine processes interleave", `Quick, test_engine_many_processes_interleave);
    ("engine sleep outside process", `Quick, test_engine_sleep_outside_process);
    ("engine nested engines stay isolated", `Quick,
      test_engine_nested_engines_isolated);
    ("engine spawn at", `Quick, test_engine_spawn_at);
    ("network accounting", `Quick, test_network_accounting);
    ("network utilization", `Quick, test_network_utilization);
    ("disk accounting", `Quick, test_disk_accounting);
    ("traffic categories", `Quick, test_traffic_categories);
    ("traffic merge", `Quick, test_traffic_merge);
    ("fs_state create/find", `Quick, test_fs_state_create_find);
    ("fs_state delete/recreate", `Quick, test_fs_state_delete_recreate);
    ("fs_state server weights", `Quick, test_fs_state_server_weights);
    ("client read/write roundtrip", `Quick, test_client_read_write_roundtrip);
    ("client seek logged", `Quick, test_client_seek_logged);
    ("close carries totals", `Quick, test_close_carries_totals);
    ("fsync priced on cluster network", `Quick, test_fsync_priced_on_cluster_network);
    ("recall on cross-client open", `Quick, test_recall_on_cross_client_open);
    ("no recall for same client", `Quick, test_no_recall_same_client);
    ("write-sharing disables caching", `Quick, test_write_sharing_disables_caching);
    ("stale cache invalidated by version", `Quick, test_stale_cache_invalidated_by_version);
    ("delete/truncate logged", `Quick, test_delete_truncate_logged);
    ("dir read uncacheable", `Quick, test_dir_read_uncacheable);
    ("exec process paging traffic", `Quick, test_exec_process_paging_traffic);
    ("swap backing traffic", `Quick, test_swap_backing_traffic);
    ("adjust memory floor/ceiling", `Quick, test_adjust_memory_respects_floor_and_ceiling);
    ("server traffic tap", `Quick, test_server_traffic_tap);
    ("take_activity", `Quick, test_take_activity);
    ("counters grouping", `Quick, test_counters_grouping);
  ]
