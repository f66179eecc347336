module File = Dfs_trace.Ids.File
module Client = Dfs_trace.Ids.Client
module Server_id = Dfs_trace.Ids.Server
module Record = Dfs_trace.Record
module Bc = Dfs_cache.Block_cache

type client_hooks = {
  recall_dirty : now:float -> file:File.t -> unit;
  stop_caching : now:float -> file:File.t -> unit;
  resume_caching : now:float -> file:File.t -> unit;
}

type open_result = { cacheable : bool; version : int; latency : float }

type config = { cache_blocks : int; disk : Disk.config }

let default_config =
  { cache_blocks = 128 * 1024 * 1024 / Dfs_util.Units.block_size;
    disk = Disk.default_config }

type opener = {
  oc_client : Client.t;
  mutable readers : int;
  mutable writers : int;
}

type open_state = { mutable openers : opener list; mutable cacheable : bool }

type consistency_counters = {
  mutable file_opens : int;
  mutable sharing_opens : int;
  mutable recalls : int;
  mutable cache_disables : int;
}

type t = {
  id : Server_id.t;
  fs : Fs_state.t;
  network : Network.t;
  log : Record.t -> unit;
  cache : Bc.t;
  disk : Disk.t;
  traffic : Traffic.t;
  clients : client_hooks Client.Tbl.t;
  open_table : open_state File.Tbl.t;
  last_writer : Client.t File.Tbl.t;
  backing_files : Fs_state.file_info Client.Tbl.t;
  counters : consistency_counters;
  faults : (Dfs_fault.Injector.t * int) option;
      (* the cluster's injector and this server's index in it *)
  mutable pending_disk : float;  (* disk time owed to the current RPC *)
}

(* A naming RPC carries roughly this many bytes of arguments/attributes. *)
let naming_rpc_bytes = 96

let create ~id ~(config : config) ~fs ~network ~log ?faults ?disk_service_times
    ?dirty_ages () =
  let disk =
    Disk.create ~config:config.disk ?faults:(Option.map fst faults)
      ?service_times:disk_service_times ()
  in
  let rec t =
    lazy
      {
        id;
        fs;
        network;
        log;
        cache =
          Bc.create ?dirty_ages
            ~config:
              {
                Bc.default_config with
                capacity_blocks = config.cache_blocks;
                min_capacity_blocks = config.cache_blocks;
              }
            {
              Bc.fetch =
                (fun ~cls:_ ~file:_ ~index:_ ~bytes ->
                  let t = Lazy.force t in
                  t.pending_disk <- t.pending_disk +. Disk.read t.disk ~bytes);
              writeback =
                (fun ~file:_ ~index:_ ~bytes ~reason:_ ->
                  let t = Lazy.force t in
                  ignore (Disk.write t.disk ~bytes));
            };
        disk;
        traffic = Traffic.create ();
        clients = Client.Tbl.create 64;
        open_table = File.Tbl.create 256;
        last_writer = File.Tbl.create 64;
        backing_files = Client.Tbl.create 64;
        counters =
          { file_opens = 0; sharing_opens = 0; recalls = 0; cache_disables = 0 };
        faults;
        pending_disk = 0.0;
      }
  in
  Lazy.force t

let id t = t.id

let network t = t.network

let register_client t client hooks = Client.Tbl.replace t.clients client hooks

let hooks_of t client =
  match Client.Tbl.find_opt t.clients client with
  | Some h -> h
  | None -> invalid_arg "Server.hooks_of: unregistered client"

let take_disk_time t =
  let d = t.pending_disk in
  t.pending_disk <- 0.0;
  d

let emit t ~now ~(cred : Cred.t) ~file kind =
  t.log
    {
      Record.time = now;
      server = t.id;
      client = cred.client;
      user = cred.user;
      pid = cred.pid;
      migrated = cred.migrated;
      file;
      kind;
    }

let naming_rpc t ~kind =
  Traffic.add_read t.traffic Traffic.Other naming_rpc_bytes;
  Network.rpc t.network ~kind ~bytes:naming_rpc_bytes

(* Extra latency the calling client suffers on this RPC when the server
   is down/partitioned (timeout-retry-backoff until it answers again) or
   the packet-loss draw fires.  Zero with faults off. *)
let fault_delay t ~now =
  match t.faults with
  | None -> 0.0
  | Some (inj, idx) -> Dfs_fault.Injector.rpc_delay inj ~server:idx ~now

(* -- open/close and the consistency protocol ----------------------------- *)

let open_state t file =
  match File.Tbl.find_opt t.open_table file with
  | Some s -> s
  | None ->
    let s = { openers = []; cacheable = true } in
    File.Tbl.replace t.open_table file s;
    s

let is_writer = function
  | Record.Write_only | Record.Read_write -> true
  | Record.Read_only -> false

let is_reader = function
  | Record.Read_only | Record.Read_write -> true
  | Record.Write_only -> false

let distinct_clients state =
  List.length state.openers

let any_writer state = List.exists (fun o -> o.writers > 0) state.openers

let open_file t ~now ~(cred : Cred.t) ~(info : Fs_state.file_info) ~mode ~created =
  let latency = ref (naming_rpc t ~kind:"open" +. fault_delay t ~now) in
  if not info.is_dir then begin
    t.counters.file_opens <- t.counters.file_opens + 1;
    (* Recall: if the file's current data sits dirty in another client's
       cache, fetch it back before this open proceeds.  Like the real
       Sprite server we do not know whether that client has already
       flushed, so this is an upper bound (the paper says the same). *)
    (match File.Tbl.find_opt t.last_writer info.id with
    | Some writer when not (Client.equal writer cred.client) ->
      (hooks_of t writer).recall_dirty ~now ~file:info.id;
      t.counters.recalls <- t.counters.recalls + 1;
      if Dfs_obs.Profiler.admit () then
        Dfs_obs.Profiler.emit ~cat:"consistency" ~name:"recall" ~t0:now ~dur:0.0
          [ ("file", Dfs_obs.Json.Int (File.to_int info.id)) ];
      File.Tbl.remove t.last_writer info.id;
      latency := !latency +. Network.rpc t.network ~kind:"recall" ~bytes:0
    | Some _ | None -> ());
    let state = open_state t info.id in
    (* register this opener *)
    (match
       List.find_opt
         (fun o -> Client.equal o.oc_client cred.client)
         state.openers
     with
    | Some o ->
      if is_reader mode then o.readers <- o.readers + 1;
      if is_writer mode then o.writers <- o.writers + 1
    | None ->
      let o =
        {
          oc_client = cred.client;
          readers = (if is_reader mode then 1 else 0);
          writers = (if is_writer mode then 1 else 0);
        }
      in
      state.openers <- o :: state.openers);
    (* Concurrent write-sharing: open on >= 2 clients, >= 1 writer. *)
    if distinct_clients state >= 2 && any_writer state then begin
      t.counters.sharing_opens <- t.counters.sharing_opens + 1;
      if state.cacheable then begin
        state.cacheable <- false;
        t.counters.cache_disables <- t.counters.cache_disables + 1;
        if Dfs_obs.Profiler.admit () then
          Dfs_obs.Profiler.emit ~cat:"consistency" ~name:"disable" ~t0:now ~dur:0.0
            [ ("file", Dfs_obs.Json.Int (File.to_int info.id)) ];
        List.iter
          (fun o -> (hooks_of t o.oc_client).stop_caching ~now ~file:info.id)
          state.openers;
        latency := !latency +. Network.rpc t.network ~kind:"disable" ~bytes:0
      end
    end
  end;
  emit t ~now ~cred ~file:info.id
    (Record.Open
       {
         mode;
         created;
         is_dir = info.is_dir;
         size = info.size;
         start_pos = 0;
       });
  let cacheable =
    (not info.is_dir)
    &&
    match File.Tbl.find_opt t.open_table info.id with
    | Some s -> s.cacheable
    | None -> true
  in
  { cacheable; version = info.version; latency = !latency }

let close_file t ~now ~(cred : Cred.t) ~(info : Fs_state.file_info) ~mode ~final_pos
    ~bytes_read ~bytes_written =
  let latency = naming_rpc t ~kind:"close" +. fault_delay t ~now in
  if not info.is_dir then begin
    (match File.Tbl.find_opt t.open_table info.id with
    | Some state ->
      (match
         List.find_opt
           (fun o -> Client.equal o.oc_client cred.client)
           state.openers
       with
      | Some o ->
        if is_reader mode then o.readers <- max 0 (o.readers - 1);
        if is_writer mode then o.writers <- max 0 (o.writers - 1);
        if o.readers = 0 && o.writers = 0 then
          state.openers <-
            List.filter
              (fun o' -> not (Client.equal o'.oc_client cred.client))
              state.openers
      | None -> ());
      if state.openers = [] then begin
        (* Sprite's rule: the file becomes cacheable again only once it
           has been closed by all clients. *)
        if not state.cacheable then
          List.iter
            (fun (_, hooks) -> hooks.resume_caching ~now ~file:info.id)
            (Client.Tbl.fold (fun c h acc -> (c, h) :: acc) t.clients []);
        File.Tbl.remove t.open_table info.id
      end
    | None -> ());
    if bytes_written > 0 then begin
      info.version <- info.version + 1;
      File.Tbl.replace t.last_writer info.id cred.client
    end
  end;
  emit t ~now ~cred ~file:info.id
    (Record.Close { size = info.size; final_pos; bytes_read; bytes_written });
  latency

let reposition t ~now ~cred ~(info : Fs_state.file_info) ~pos_before ~pos_after
    =
  let latency = naming_rpc t ~kind:"seek" +. fault_delay t ~now in
  emit t ~now ~cred ~file:info.id (Record.Reposition { pos_before; pos_after });
  latency

let delete_file t ~now ~cred ~(info : Fs_state.file_info) =
  let latency = naming_rpc t ~kind:"delete" +. fault_delay t ~now in
  emit t ~now ~cred ~file:info.id
    (Record.Delete { size = info.size; is_dir = info.is_dir });
  Fs_state.delete t.fs info.id;
  File.Tbl.remove t.last_writer info.id;
  Bc.delete t.cache ~now ~file:info.id;
  latency

let truncate_file t ~now ~cred ~(info : Fs_state.file_info) =
  let latency = naming_rpc t ~kind:"truncate" +. fault_delay t ~now in
  emit t ~now ~cred ~file:info.id (Record.Truncate { old_size = info.size });
  info.size <- 0;
  info.version <- info.version + 1;
  Bc.delete t.cache ~now ~file:info.id;
  latency

let dir_read t ~now ~cred ~(info : Fs_state.file_info) ~bytes =
  Traffic.add_read t.traffic Traffic.Directory bytes;
  Bc.read t.cache ~now ~cls:Bc.Class_file ~migrated:false ~file:info.id
    ~file_size:(max info.size bytes) ~off:0 ~len:bytes;
  emit t ~now ~cred ~file:info.id (Record.Dir_read { bytes });
  Network.rpc t.network ~kind:"dirread" ~bytes
  +. take_disk_time t +. fault_delay t ~now

(* -- data path ------------------------------------------------------------ *)

let fetch t ~now ~cls ~file ~index ~bytes =
  let category =
    match cls with
    | Bc.Class_file -> Traffic.File_data
    | Bc.Class_paging -> Traffic.Paging_cached
  in
  Traffic.add_read t.traffic category bytes;
  let size =
    match Fs_state.find t.fs file with
    | Some info -> info.size
    | None -> bytes + (index * Dfs_util.Units.block_size)
  in
  if bytes > 0 then
    Bc.read t.cache ~now ~cls ~migrated:false ~file ~file_size:size
      ~off:(index * Dfs_util.Units.block_size)
      ~len:bytes;
  Network.rpc t.network ~kind:"fetch" ~bytes
  +. take_disk_time t +. fault_delay t ~now

let do_writeback t ~now ~kind ~file ~index ~bytes =
  Traffic.add_write t.traffic Traffic.File_data bytes;
  let size =
    match Fs_state.find t.fs file with
    | Some info -> info.size
    | None -> bytes + (index * Dfs_util.Units.block_size)
  in
  if bytes > 0 then
    Bc.write t.cache ~now ~cls:Bc.Class_file ~migrated:false ~file
      ~file_size:size
      ~off:(index * Dfs_util.Units.block_size)
      ~len:bytes;
  ignore (Network.rpc t.network ~kind ~bytes);
  ignore (take_disk_time t)

let writeback t ~now ~file ~index ~bytes =
  match t.faults with
  | Some (inj, idx) when Dfs_fault.Injector.server_down inj ~server:idx ~now ->
    (* The server is down: the client's writeback daemon parks the block
       in its offline queue; the bytes stay at risk (the client still
       holds them) and are replayed when the server reboots. *)
    Dfs_fault.Injector.queue_writeback inj ~server:idx
      ~file:(File.to_int file) ~index ~bytes
  | _ -> do_writeback t ~now ~kind:"writeback" ~file ~index ~bytes

let shared_read t ~now ~cred ~(info : Fs_state.file_info) ~off ~len =
  Traffic.add_read t.traffic Traffic.Shared len;
  Bc.read t.cache ~now ~cls:Bc.Class_file ~migrated:cred.Cred.migrated
    ~file:info.id ~file_size:info.size ~off ~len;
  emit t ~now ~cred ~file:info.id (Record.Shared_read { offset = off; length = len });
  Network.rpc t.network ~kind:"sread" ~bytes:len
  +. take_disk_time t +. fault_delay t ~now

let shared_write t ~now ~cred ~(info : Fs_state.file_info) ~off ~len =
  Traffic.add_write t.traffic Traffic.Shared len;
  Bc.write t.cache ~now ~cls:Bc.Class_file ~migrated:cred.Cred.migrated
    ~file:info.id ~file_size:info.size ~off ~len;
  info.version <- info.version + 1;
  emit t ~now ~cred ~file:info.id
    (Record.Shared_write { offset = off; length = len });
  Network.rpc t.network ~kind:"swrite" ~bytes:len
  +. take_disk_time t +. fault_delay t ~now

(* -- paging backing files -------------------------------------------------- *)

let backing_file t ~now client =
  match Client.Tbl.find_opt t.backing_files client with
  | Some info -> info
  | None ->
    let info = Fs_state.create_file t.fs ~now () in
    Client.Tbl.replace t.backing_files client info;
    info

let backing_write t ~now ~client ~bytes =
  Traffic.add_write t.traffic Traffic.Paging_backing bytes;
  let info = backing_file t ~now client in
  (* Backing files are written append-style at page granularity; model as
     an overwrite of the file's head region, growing as needed. *)
  if bytes > info.size then info.size <- bytes;
  Bc.write t.cache ~now ~cls:Bc.Class_paging ~migrated:false ~file:info.id
    ~file_size:info.size ~off:0 ~len:bytes;
  Network.rpc t.network ~kind:"page-out" ~bytes
  +. take_disk_time t +. fault_delay t ~now

let backing_read t ~now ~client ~bytes =
  Traffic.add_read t.traffic Traffic.Paging_backing bytes;
  let info = backing_file t ~now client in
  if bytes > info.size then info.size <- bytes;
  Bc.read t.cache ~now ~cls:Bc.Class_paging ~migrated:false ~file:info.id
    ~file_size:info.size ~off:0 ~len:bytes;
  Network.rpc t.network ~kind:"page-in" ~bytes
  +. take_disk_time t +. fault_delay t ~now

let tick t ~now = Bc.tick t.cache ~now

(* -- crash and Sprite-style stateful recovery ------------------------------ *)

let crash t ~now =
  (* Volatile state dies with the machine: the open table and last-writer
     map (clients will replay them during recovery) and every block in
     the server cache.  Dirty server-cache blocks are delayed writes that
     never reached the disk — the paper's 30-second loss window made
     real. *)
  File.Tbl.reset t.open_table;
  File.Tbl.reset t.last_writer;
  Bc.crash t.cache ~now

let reboot t ~now =
  match t.faults with
  | None -> ()
  | Some (inj, idx) ->
    (* Deliver the writebacks that clients parked while we were down. *)
    Dfs_fault.Injector.drain_writebacks inj ~server:idx
      (fun ~file ~index ~bytes ->
        do_writeback t ~now ~kind:"recov-writeback" ~file:(File.of_int file)
          ~index ~bytes)

let recover_register t ~client =
  ignore client;
  naming_rpc t ~kind:"recov-register"

let recover_open t ~client ~file ~mode =
  (* Replay of a pre-crash open.  Rebuilds the open table silently: no
     trace record, no consistency counters — the open already happened
     and was accounted before the crash; this is state reconstruction,
     not new activity.  Sharing-driven cache disables are likewise not
     re-derived (each client's fds kept their cacheable flags). *)
  let state = open_state t file in
  (match
     List.find_opt (fun o -> Client.equal o.oc_client client) state.openers
   with
  | Some o ->
    if is_reader mode then o.readers <- o.readers + 1;
    if is_writer mode then o.writers <- o.writers + 1
  | None ->
    state.openers <-
      {
        oc_client = client;
        readers = (if is_reader mode then 1 else 0);
        writers = (if is_writer mode then 1 else 0);
      }
      :: state.openers);
  naming_rpc t ~kind:"recov-open"

let recover_dirty t ~client ~file =
  (* The client re-asserts "I hold dirty data for this file", restoring
     the last-writer map so post-reboot opens recall correctly. *)
  File.Tbl.replace t.last_writer file client;
  naming_rpc t ~kind:"recov-dirty"

let is_cacheable t file =
  match File.Tbl.find_opt t.open_table file with
  | Some s -> s.cacheable
  | None -> true

let traffic t = t.traffic

let cache t = t.cache

let disk t = t.disk

let consistency t = t.counters

(* Post-simulation memory release: the open-file, last-writer and
   backing-file tables all grow with the set of files ever served, and
   the client-hook closures pin the client structures.  Counters
   ([traffic], [consistency], [Bc.stats]) survive. *)
let release_sim_state t =
  File.Tbl.reset t.open_table;
  File.Tbl.reset t.last_writer;
  Client.Tbl.reset t.backing_files;
  Client.Tbl.reset t.clients;
  Bc.drop_contents t.cache
