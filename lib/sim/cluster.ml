module Ids = Dfs_trace.Ids
module Record = Dfs_trace.Record
module Sink = Dfs_trace.Sink
module Bc = Dfs_cache.Block_cache

type config = {
  n_clients : int;
  n_servers : int;
  seed : int;
  client_config : Client.config;
  client_memory_choices : int list;
  server_config : Server.config;
  network_config : Network.config;
  daemon_interval : float;
  memory_adjust_interval : float;
  counter_interval : float;
  simulate_infrastructure : bool;
  fault_profile : Dfs_fault.Profile.t;
  trace_chunk_records : int;
  trace_spill_dir : string option;
  trace_spill_tag : string;
  client_id_base : int;
  server_id_base : int;
  file_id_base : int;
  user_id_base : int;
  pid_base : int;
  fault_schedule_servers : int option;
}

(* Fault windows are generated eagerly out to this horizon; runs longer
   than this see no further injected faults. *)
let fault_horizon = 7.0 *. 86400.0

let default_config =
  {
    n_clients = 40;
    n_servers = 4;
    seed = 42;
    client_config = Client.default_config;
    client_memory_choices =
      [ 24 * Dfs_util.Units.mib; 24 * Dfs_util.Units.mib; 32 * Dfs_util.Units.mib ];
    server_config = Server.default_config;
    network_config = Network.default_config;
    daemon_interval = 5.0;
    memory_adjust_interval = 10.0;
    counter_interval = 60.0;
    simulate_infrastructure = true;
    fault_profile = Dfs_fault.Profile.none;
    trace_chunk_records = Sink.default_chunk_records;
    trace_spill_dir = None;
    trace_spill_tag = "cluster";
    client_id_base = 0;
    server_id_base = 0;
    file_id_base = 0;
    user_id_base = 0;
    pid_base = 0;
    fault_schedule_servers = None;
  }

let daemon_user = Ids.User.of_int 9000

let backup_user = Ids.User.of_int 9001

(* Cross-partition remote reads of a sharded simulation run under this
   identity; like the daemon and backup users it is shared by every
   partition and scrubbed from the merged trace. *)
let remote_user = Ids.User.of_int 9002

let self_users = Ids.User.Set.of_list [ daemon_user; backup_user; remote_user ]

type t = {
  cfg : config;
  engine : Engine.t;
  fs : Fs_state.t;
  network : Network.t;
  rng : Dfs_util.Rng.t;
  servers : Server.t array;
  clients : Client.t array;
  counters : Counters.t;
  logs : Sink.t array;  (* chunked per-server logs, in emission order *)
  mutable released : bool;
  faults : Dfs_fault.Injector.t option;
  mutable next_infra_pid : int;
  mutable remote_cursor : int;  (* rotating file pick for remote reads *)
}

let cfg t = t.cfg

let engine t = t.engine

let fs t = t.fs

let network t = t.network

let rng t = t.rng

let clients t = t.clients

let servers t = t.servers

let client t i = t.clients.(i)

let client_id t i = Ids.Client.of_int (t.cfg.client_id_base + i)

let counters t = t.counters

let faults t = t.faults

(* -- infrastructure traffic (to be scrubbed, as in the paper) ------------- *)

let infra_cred t ~user ~client =
  let pid = Ids.Process.of_int (900000 + t.next_infra_pid) in
  t.next_infra_pid <- t.next_infra_pid + 1;
  Cred.make ~user ~pid ~client ~migrated:false

let emit_infra t ~server_idx (record : Record.t) =
  Sink.emit t.logs.(server_idx) record

let log_infra_access t ~server_idx ~cred ~file ~size ~mode ~bytes_read
    ~bytes_written =
  let now = Engine.now t.engine in
  let base kind =
    {
      Record.time = now;
      server = Ids.Server.of_int (t.cfg.server_id_base + server_idx);
      client = (cred : Cred.t).client;
      user = cred.user;
      pid = cred.pid;
      migrated = false;
      file;
      kind;
    }
  in
  emit_infra t ~server_idx
    (base (Record.Open { mode; created = false; is_dir = false; size; start_pos = 0 }));
  emit_infra t ~server_idx
    (base
       (Record.Close
          { size = max size bytes_written; final_pos = max bytes_read bytes_written;
            bytes_read; bytes_written }))

(* The trace-collection daemon: every minute it appends the in-kernel log
   to that server's trace file. *)
let trace_daemon_step t =
  if t.cfg.simulate_infrastructure then
    Array.iteri
      (fun i _server ->
        let cred =
          infra_cred t ~user:daemon_user ~client:(client_id t 0)
        in
        let file = Ids.File.of_int (800000 + t.cfg.server_id_base + i) in
        let chunk = 32 * 1024 in
        log_infra_access t ~server_idx:i ~cred ~file ~size:(chunk * 10)
          ~mode:Record.Write_only ~bytes_read:0 ~bytes_written:chunk)
      t.servers

(* The nightly tape backup: reads a swath of live files through the
   server (it does not go through client caches). *)
let backup_step t =
  if t.cfg.simulate_infrastructure then begin
    let now = Engine.now t.engine in
    let scanned = ref 0 in
    let limit = 500 in
    let total = Fs_state.total_files t.fs in
    let file_base = Fs_state.file_id_base t.fs in
    let stride = max 1 (total / limit) in
    let i = ref 0 in
    while !i < total && !scanned < limit do
      (match Fs_state.find t.fs (Ids.File.of_int (file_base + !i)) with
      | Some info when info.exists && not info.is_dir && info.size > 0 ->
        incr scanned;
        let server_idx = Ids.Server.to_int info.server - t.cfg.server_id_base in
        let server = t.servers.(server_idx) in
        let cred =
          infra_cred t ~user:backup_user ~client:(client_id t 0)
        in
        (* server-side read: warms/pollutes the server cache only *)
        Bc.read (Server.cache server) ~now ~cls:Bc.Class_file ~migrated:false
          ~file:info.id ~file_size:info.size ~off:0 ~len:info.size;
        log_infra_access t ~server_idx ~cred ~file:info.id ~size:info.size
          ~mode:Record.Read_only ~bytes_read:info.size ~bytes_written:0
      | Some _ | None -> ());
      i := !i + stride
    done
  end

(* A cross-partition remote read: a client homed in another partition of
   a sharded simulation reads one of our files through its server.  The
   server-side cache, network and disk accounting all see it — so
   cross-shard delivery order is output-visible, which is exactly what
   makes the sharded byte-identity checks meaningful — and the records
   are emitted under [remote_user], scrubbed from the merged trace like
   the rest of the infrastructure traffic.  Returns the bytes served. *)
let remote_access t ~client ~bytes =
  let total = Fs_state.total_files t.fs in
  if total = 0 || bytes <= 0 then 0
  else begin
    let file_base = Fs_state.file_id_base t.fs in
    let probes = min total 256 in
    let found = ref None in
    let i = ref 0 in
    while !found = None && !i < probes do
      let idx = file_base + ((t.remote_cursor + !i) mod total) in
      (match Fs_state.find t.fs (Ids.File.of_int idx) with
      | Some info when info.exists && not info.is_dir && info.size > 0 ->
        found := Some info
      | Some _ | None -> ());
      incr i
    done;
    t.remote_cursor <- (t.remote_cursor + !i) mod total;
    match !found with
    | None -> 0
    | Some info ->
      let now = Engine.now t.engine in
      let len = min bytes info.size in
      let server_idx = Ids.Server.to_int info.server - t.cfg.server_id_base in
      let server = t.servers.(server_idx) in
      Bc.read (Server.cache server) ~now ~cls:Bc.Class_file ~migrated:false
        ~file:info.id ~file_size:info.size ~off:0 ~len;
      ignore (Network.rpc t.network ~kind:"remote-read" ~bytes:len);
      let cred = infra_cred t ~user:remote_user ~client in
      log_infra_access t ~server_idx ~cred ~file:info.id ~size:info.size
        ~mode:Record.Read_only ~bytes_read:len ~bytes_written:0;
      len
  end

(* -- assembly -------------------------------------------------------------- *)

let create cfg =
  assert (cfg.n_clients >= 1 && cfg.n_servers >= 1);
  let engine = Engine.create () in
  (* Stamp observability events (RPC/disk spans) with this cluster's
     simulated time; the most recently built cluster wins, which is fine
     for a telemetry-only clock. *)
  Dfs_obs.Clock.set_source (fun () -> Engine.now engine);
  let rng = Dfs_util.Rng.create cfg.seed in
  let fs =
    Fs_state.create ~n_servers:cfg.n_servers
      ~server_id_base:cfg.server_id_base ~file_id_base:cfg.file_id_base
      ~rng:(Dfs_util.Rng.split rng) ()
  in
  let network = Network.create ~config:cfg.network_config () in
  let log_sink i =
    let spill =
      Option.map
        (fun dir ->
          { Sink.dir; name = Printf.sprintf "%s-server%d" cfg.trace_spill_tag i })
        cfg.trace_spill_dir
    in
    Sink.create ~chunk_records:cfg.trace_chunk_records ?spill ()
  in
  let logs = Array.init cfg.n_servers log_sink in
  let faults =
    if Dfs_fault.Profile.is_none cfg.fault_profile then None
    else
      Some
        (Dfs_fault.Injector.create ~profile:cfg.fault_profile
           ~n_servers:cfg.n_servers ~server_id_base:cfg.server_id_base
           ?schedule_servers:cfg.fault_schedule_servers
           ~horizon:fault_horizon ())
  in
  let servers =
    Array.init cfg.n_servers (fun i ->
        Server.create ~id:(Ids.Server.of_int (cfg.server_id_base + i))
          ~config:cfg.server_config ~fs ~network
          ~log:(fun r -> Sink.emit logs.(i) r)
          ?faults:(Option.map (fun inj -> (inj, i)) faults)
          ())
  in
  let server_of sid = servers.(Ids.Server.to_int sid - cfg.server_id_base) in
  let mem_choices = Array.of_list cfg.client_memory_choices in
  let clients =
    Array.init cfg.n_clients (fun i ->
        (* deterministic round-robin over the memory sizes, so a given
           client index has the same memory in every preset *)
        let memory_bytes =
          if Array.length mem_choices = 0 then cfg.client_config.memory_bytes
          else mem_choices.(i mod Array.length mem_choices)
        in
        Client.create ~engine ~id:(Ids.Client.of_int (cfg.client_id_base + i))
          ~fs ~server_of
          ~paging_server:servers.(0)
          ~config:{ cfg.client_config with memory_bytes }
          ())
  in
  Array.iter
    (fun c ->
      let hooks = Client.hooks c in
      Array.iter (fun s -> Server.register_client s (Client.id c) hooks) servers)
    clients;
  let t =
    {
      cfg;
      engine;
      fs;
      network;
      rng;
      servers;
      clients;
      counters = Counters.create ();
      logs;
      released = false;
      faults;
      next_infra_pid = 0;
      remote_cursor = 0;
    }
  in
  (* -- fault wiring: crashes, reboots, the recovery storm ------------------ *)
  let last_reboot = ref neg_infinity in
  (match faults with
  | None -> ()
  | Some inj ->
    let sched = Dfs_fault.Injector.schedule inj in
    Array.iteri
      (fun i server ->
        List.iter
          (fun (w : Dfs_fault.Schedule.window) ->
            Engine.at engine w.down_at (fun () ->
                let lost = Server.crash server ~now:w.down_at in
                Dfs_fault.Injector.note_crash inj ~server:i ~now:w.down_at
                  ~duration:(w.up_at -. w.down_at) ~lost_bytes:lost);
            Engine.at engine w.up_at (fun () ->
                last_reboot := w.up_at;
                Dfs_fault.Injector.note_reboot inj ~server:i ~now:w.up_at;
                Server.reboot server ~now:w.up_at;
                (* The recovery storm: every client replays its state,
                   staggered by a deterministic per-client offset so the
                   RPC burst has the shape (and seriality) Sprite's
                   recovery had. *)
                Array.iteri
                  (fun ci c ->
                    Engine.at engine
                      (w.up_at +. (0.05 *. float_of_int ci))
                      (fun () ->
                        let _lat, rpcs = Client.recover c ~server in
                        Dfs_fault.Injector.note_recovery_rpcs inj rpcs))
                  clients))
          (Dfs_fault.Schedule.server_outages sched (cfg.server_id_base + i)))
      servers;
    List.iter
      (fun (w : Dfs_fault.Schedule.window) ->
        Engine.at engine w.down_at (fun () ->
            Dfs_fault.Injector.note_partition inj ~now:w.down_at
              ~duration:(w.up_at -. w.down_at)))
      (Dfs_fault.Schedule.partitions sched);
    (* bytes currently exposed to the delayed-write loss window *)
    Engine.every engine ~interval:cfg.daemon_interval (fun () ->
        let dirty acc cache = acc + Bc.dirty_bytes cache in
        let at_risk =
          Array.fold_left (fun acc c -> dirty acc (Client.cache c)) 0 clients
        in
        let at_risk =
          Array.fold_left (fun acc s -> dirty acc (Server.cache s)) at_risk
            servers
        in
        Dfs_fault.Injector.set_bytes_at_risk inj at_risk));
  (* housekeeping daemons *)
  Engine.every engine ~interval:cfg.daemon_interval (fun () ->
      let now = Engine.now engine in
      Array.iter (fun c -> Client.tick c ~now) clients;
      Array.iter (fun s -> Server.tick s ~now) servers);
  Engine.every engine ~interval:cfg.memory_adjust_interval (fun () ->
      let now = Engine.now engine in
      Array.iter (fun c -> Client.adjust_memory c ~now) clients);
  Engine.every engine ~interval:cfg.counter_interval (fun () ->
      let now = Engine.now engine in
      (* A server reboot inside the sampling interval marks every sample
         of the interval: the paper screened such intervals out of the
         counter analysis, and Cache_stats does the same. *)
      let rebooted = now -. !last_reboot < cfg.counter_interval in
      Array.iter
        (fun c ->
          Counters.record t.counters
            {
              Counters.time = now;
              client = Client.id c;
              cache_bytes = Client.cache_bytes c;
              cache_capacity_bytes =
                Bc.capacity (Client.cache c) * Dfs_util.Units.block_size;
              vm_pages =
                Dfs_vm.Vm.demand_pages (Client.vm c) ~now;
              active = Client.take_activity c;
              rebooted;
            })
        clients);
  Engine.every engine ~interval:60.0 (fun () -> trace_daemon_step t);
  (* nightly backup at 02:00 each simulated day *)
  Engine.every engine ~interval:86400.0 ~start:7200.0 (fun () -> backup_step t);
  t

let check_live t =
  if t.released then invalid_arg "Cluster: per-server traces were released"

let server_chunks t =
  check_live t;
  Array.to_list (Array.map Sink.chunks_now t.logs)

let merged_chunks ?chunk_records ?spill t =
  let chunk_records =
    Option.value chunk_records ~default:t.cfg.trace_chunk_records
  in
  Dfs_trace.Merge.merge_chunks ~chunk_records ?spill ~scrub:self_users
    (server_chunks t)

let merged_trace t = Sink.to_records (merged_chunks t)

(* Drop the per-server logs (deleting spilled segments) once the merged
   trace has been produced; the sinks must not be read afterwards. *)
let release_traces t =
  if not t.released then begin
    t.released <- true;
    Array.iter Sink.clear t.logs
  end

(* Full post-simulation release: the traces, the event queue and every
   per-file/per-client table across the engine, namespace, clients and
   servers.  Counters and traffic totals — everything the post-run
   analyses read — survive, but the cluster can neither run further nor
   serve per-file lookups. *)
let release_sim_state t =
  release_traces t;
  Engine.drop_pending t.engine;
  Fs_state.drop_files t.fs;
  Array.iter Client.release_sim_state t.clients;
  Array.iter Server.release_sim_state t.servers

let total_traffic t =
  Array.fold_left
    (fun acc c -> Traffic.merge acc (Client.traffic c))
    (Traffic.create ()) t.clients

let total_server_traffic t =
  Array.fold_left
    (fun acc s -> Traffic.merge acc (Server.traffic s))
    (Traffic.create ()) t.servers
