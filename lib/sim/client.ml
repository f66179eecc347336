module File = Dfs_trace.Ids.File
module Record = Dfs_trace.Record
module Bc = Dfs_cache.Block_cache

type config = {
  memory_bytes : int;
  kernel_reserve_bytes : int;
  min_cache_bytes : int;
  max_cache_fraction : float;
  initial_cache_bytes : int;
  syscall_overhead : float;
  copy_rate : float;
  writeback_delay : float;
}

let default_config =
  {
    memory_bytes = 24 * Dfs_util.Units.mib;
    kernel_reserve_bytes = 2 * Dfs_util.Units.mib;
    min_cache_bytes = Dfs_util.Units.mib / 2;
    max_cache_fraction = 0.34;
    initial_cache_bytes = 2 * Dfs_util.Units.mib;
    syscall_overhead = 0.0005;
    copy_rate = 20e6;
    writeback_delay = 30.0;
  }

type fd = {
  f_cred : Cred.t;
  f_info : Fs_state.file_info;
  f_mode : Record.open_mode;
  mutable pos : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
  mutable cacheable : bool;
}

type t = {
  engine : Engine.t;
  cid : Dfs_trace.Ids.Client.t;
  fs : Fs_state.t;
  server_of : Dfs_trace.Ids.Server.t -> Server.t;
  paging_server : Server.t;
  cfg : config;
  do_sleep : bool;
  cache : Bc.t;
  vm : Dfs_vm.Vm.t;
  traffic : Traffic.t;
  versions : int File.Tbl.t;  (* last server version seen per file *)
  open_fd_table : fd list ref File.Tbl.t;
  mutable pending : float;  (* latency owed to the current operation *)
  mutable cur_migrated : bool;  (* identity for VM-initiated traffic *)
  mutable ops : int;  (* activity flag for the counter sampler *)
  op_latencies : Dfs_obs.Metrics.Acc.t;
}

let pages bytes = bytes / Dfs_util.Units.block_size

let server_for t file =
  match Fs_state.find t.fs file with
  | Some info -> t.server_of info.server
  | None -> t.paging_server

let create ~engine ~id ~fs ~server_of ~paging_server ?(config = default_config)
    ?(sleep = true) ?(op_latencies = Dfs_obs.Metrics.Acc.create ()) ?dirty_ages () =
  let rec t =
    lazy
      {
        engine;
        cid = id;
        fs;
        server_of;
        paging_server;
        cfg = config;
        do_sleep = sleep;
        cache =
          Bc.create ?dirty_ages
            ~config:
              {
                Bc.default_config with
                capacity_blocks = pages config.initial_cache_bytes;
                min_capacity_blocks = pages config.min_cache_bytes;
                writeback_delay = config.writeback_delay;
              }
            {
              Bc.fetch =
                (fun ~cls ~file ~index ~bytes ->
                  let t = Lazy.force t in
                  let server = server_for t file in
                  let now = Engine.now t.engine in
                  t.pending <-
                    t.pending +. Server.fetch server ~now ~cls ~file ~index ~bytes);
              writeback =
                (fun ~file ~index ~bytes ~reason:_ ->
                  let t = Lazy.force t in
                  let server = server_for t file in
                  let now = Engine.now t.engine in
                  Server.writeback server ~now ~file ~index ~bytes);
            };
        vm =
          Dfs_vm.Vm.create
            {
              Dfs_vm.Vm.cached_page_read =
                (fun ~file ~off ~len ->
                  let t = Lazy.force t in
                  let now = Engine.now t.engine in
                  Traffic.add_read t.traffic Traffic.Paging_cached len;
                  let file_size =
                    match Fs_state.find t.fs file with
                    | Some info -> max info.size (off + len)
                    | None -> off + len
                  in
                  Bc.read t.cache ~now ~cls:Bc.Class_paging
                    ~migrated:t.cur_migrated ~file ~file_size ~off ~len);
              backing_read =
                (fun ~bytes ->
                  let t = Lazy.force t in
                  let now = Engine.now t.engine in
                  Traffic.add_read t.traffic Traffic.Paging_backing bytes;
                  t.pending <-
                    t.pending
                    +. Server.backing_read t.paging_server ~now ~client:t.cid
                         ~bytes);
              backing_write =
                (fun ~bytes ->
                  let t = Lazy.force t in
                  let now = Engine.now t.engine in
                  Traffic.add_write t.traffic Traffic.Paging_backing bytes;
                  t.pending <-
                    t.pending
                    +. Server.backing_write t.paging_server ~now ~client:t.cid
                         ~bytes);
            };
        traffic = Traffic.create ();
        versions = File.Tbl.create 256;
        open_fd_table = File.Tbl.create 64;
        pending = 0.0;
        cur_migrated = false;
        ops = 0;
        op_latencies;
      }
  in
  Lazy.force t

let id t = t.cid

let cache t = t.cache

let vm t = t.vm

let traffic t = t.traffic

let config t = t.cfg

(* -- latency -------------------------------------------------------------- *)

let take_pending t =
  let d = t.pending in
  t.pending <- 0.0;
  d

let copy_time t bytes = float_of_int bytes /. t.cfg.copy_rate

let finish_op t extra =
  t.ops <- t.ops + 1;
  let d = take_pending t +. extra +. t.cfg.syscall_overhead in
  Dfs_obs.Metrics.Acc.observe t.op_latencies d;
  if t.do_sleep && d > 0.0 then Engine.sleep d

(* -- server hooks ---------------------------------------------------------- *)

let fds_of t file =
  match File.Tbl.find_opt t.open_fd_table file with
  | Some l -> !l
  | None -> []

let hooks t =
  {
    Server.recall_dirty =
      (fun ~now ~file -> Bc.recall t.cache ~now ~file);
    stop_caching =
      (fun ~now ~file ->
        Bc.flush_and_invalidate t.cache ~now ~file;
        List.iter (fun fd -> fd.cacheable <- false) (fds_of t file));
    resume_caching =
      (fun ~now ~file ->
        ignore now;
        List.iter (fun fd -> fd.cacheable <- true) (fds_of t file));
  }

(* -- file operations ------------------------------------------------------- *)

let register_fd t fd =
  let l =
    match File.Tbl.find_opt t.open_fd_table fd.f_info.id with
    | Some l -> l
    | None ->
      let l = ref [] in
      File.Tbl.replace t.open_fd_table fd.f_info.id l;
      l
  in
  l := fd :: !l

let unregister_fd t fd =
  match File.Tbl.find_opt t.open_fd_table fd.f_info.id with
  | None -> ()
  | Some l ->
    l := List.filter (fun fd' -> fd' != fd) !l;
    if !l = [] then File.Tbl.remove t.open_fd_table fd.f_info.id

let open_file t ~cred ~(info : Fs_state.file_info) ~mode ~created =
  let now = Engine.now t.engine in
  let result = Server.open_file (t.server_of info.server) ~now ~cred ~info ~mode ~created in
  (* Timestamp-based consistency: a version mismatch means our cached
     blocks (from an earlier open) are stale and must be flushed. *)
  (match File.Tbl.find_opt t.versions info.id with
  | Some v when v <> result.version ->
    Bc.invalidate t.cache ~now ~file:info.id
  | Some _ | None -> ());
  File.Tbl.replace t.versions info.id result.version;
  let fd =
    {
      f_cred = cred;
      f_info = info;
      f_mode = mode;
      pos = 0;
      bytes_read = 0;
      bytes_written = 0;
      cacheable = result.cacheable;
    }
  in
  register_fd t fd;
  finish_op t result.latency;
  fd

let read t fd ~len =
  assert (len >= 0);
  let info = fd.f_info in
  let n = max 0 (min len (info.size - fd.pos)) in
  if n > 0 then begin
    if fd.cacheable then begin
      Traffic.add_read t.traffic Traffic.File_data n;
      Bc.read t.cache ~now:(Engine.now t.engine) ~cls:Bc.Class_file
        ~migrated:fd.f_cred.migrated ~file:info.id ~file_size:info.size
        ~off:fd.pos ~len:n;
      fd.pos <- fd.pos + n;
      fd.bytes_read <- fd.bytes_read + n;
      finish_op t (copy_time t n)
    end
    else begin
      Traffic.add_read t.traffic Traffic.Shared n;
      let lat =
        Server.shared_read (t.server_of info.server) ~now:(Engine.now t.engine)
          ~cred:fd.f_cred ~info ~off:fd.pos ~len:n
      in
      fd.pos <- fd.pos + n;
      fd.bytes_read <- fd.bytes_read + n;
      finish_op t lat
    end
  end;
  n

let write t fd ~len =
  assert (len >= 0);
  let info = fd.f_info in
  if len > 0 then begin
    if fd.cacheable then begin
      Traffic.add_write t.traffic Traffic.File_data len;
      Bc.write t.cache ~now:(Engine.now t.engine) ~cls:Bc.Class_file
        ~migrated:fd.f_cred.migrated ~file:info.id ~file_size:info.size
        ~off:fd.pos ~len;
      info.size <- max info.size (fd.pos + len);
      fd.pos <- fd.pos + len;
      fd.bytes_written <- fd.bytes_written + len;
      finish_op t (copy_time t len)
    end
    else begin
      Traffic.add_write t.traffic Traffic.Shared len;
      let lat =
        Server.shared_write (t.server_of info.server)
          ~now:(Engine.now t.engine) ~cred:fd.f_cred ~info ~off:fd.pos ~len
      in
      info.size <- max info.size (fd.pos + len);
      fd.pos <- fd.pos + len;
      fd.bytes_written <- fd.bytes_written + len;
      finish_op t lat
    end
  end;
  len

let seek t fd ~pos =
  assert (pos >= 0);
  let info = fd.f_info in
  let lat =
    Server.reposition (t.server_of info.server) ~now:(Engine.now t.engine)
      ~cred:fd.f_cred ~info ~pos_before:fd.pos ~pos_after:pos
  in
  fd.pos <- pos;
  finish_op t lat

let fd_pos _t fd = fd.pos

let fsync t fd =
  let info = fd.f_info in
  let before = (Bc.stats t.cache).writeback_bytes in
  Bc.fsync t.cache ~now:(Engine.now t.engine) ~file:info.id;
  let flushed = (Bc.stats t.cache).writeback_bytes - before in
  (* The process waits for the synchronous write-through, priced on the
     network the file's server is attached to. *)
  let net = Network.config (Server.network (t.server_of info.server)) in
  let nblocks = Dfs_util.Units.blocks_of_bytes flushed in
  let lat =
    (float_of_int nblocks *. net.rpc_latency)
    +. (float_of_int flushed /. net.bandwidth)
  in
  finish_op t lat

let close t fd =
  let info = fd.f_info in
  let lat =
    Server.close_file (t.server_of info.server) ~now:(Engine.now t.engine)
      ~cred:fd.f_cred ~info ~mode:fd.f_mode ~final_pos:fd.pos
      ~bytes_read:fd.bytes_read ~bytes_written:fd.bytes_written
  in
  (* After a write-close the server bumped the version; what we cached is
     that newest version. *)
  if fd.bytes_written > 0 then File.Tbl.replace t.versions info.id info.version;
  unregister_fd t fd;
  finish_op t lat

let delete t ~cred ~(info : Fs_state.file_info) =
  Bc.delete t.cache ~now:(Engine.now t.engine) ~file:info.id;
  File.Tbl.remove t.versions info.id;
  let lat =
    Server.delete_file (t.server_of info.server) ~now:(Engine.now t.engine)
      ~cred ~info
  in
  finish_op t lat

let truncate t ~cred ~(info : Fs_state.file_info) =
  Bc.delete t.cache ~now:(Engine.now t.engine) ~file:info.id;
  let lat =
    Server.truncate_file (t.server_of info.server) ~now:(Engine.now t.engine)
      ~cred ~info
  in
  finish_op t lat

let read_dir t ~cred ~(info : Fs_state.file_info) =
  let bytes = max 64 info.size in
  Traffic.add_read t.traffic Traffic.Directory bytes;
  let lat =
    Server.dir_read (t.server_of info.server) ~now:(Engine.now t.engine) ~cred
      ~info ~bytes
  in
  finish_op t lat

(* -- processes and paging --------------------------------------------------- *)

let with_identity t ~(cred : Cred.t) f =
  let saved = t.cur_migrated in
  t.cur_migrated <- cred.migrated;
  Fun.protect ~finally:(fun () -> t.cur_migrated <- saved) f

let exec_process t ~cred ~(exe : Fs_state.file_info) ~code_bytes ~data_bytes =
  with_identity t ~cred (fun () ->
      Dfs_vm.Vm.exec t.vm ~now:(Engine.now t.engine) ~pid:cred.pid ~exe:exe.id
        ~code_bytes ~data_bytes);
  finish_op t 0.0

let grow_process t ~cred ~heap_bytes =
  Dfs_vm.Vm.grow t.vm ~now:(Engine.now t.engine) ~pid:cred.Cred.pid ~heap_bytes

let exit_process t ~cred =
  Dfs_vm.Vm.exit t.vm ~now:(Engine.now t.engine) ~pid:cred.Cred.pid

let swap_out_process t ~cred ~fraction =
  with_identity t ~cred (fun () ->
      Dfs_vm.Vm.swap_out t.vm ~now:(Engine.now t.engine) ~pid:cred.Cred.pid
        ~fraction);
  ignore (take_pending t)

let swap_in_process t ~cred ~fraction =
  with_identity t ~cred (fun () ->
      Dfs_vm.Vm.swap_in t.vm ~now:(Engine.now t.engine) ~pid:cred.Cred.pid
        ~fraction);
  finish_op t 0.0

(* -- crash recovery ----------------------------------------------------------- *)

let recover t ~server =
  (* Sprite stateful recovery: on noticing the reboot the client
     re-registers, then replays its per-server state so the server can
     rebuild its open table and last-writer map.  Replay order is sorted
     by file id — a deterministic order independent of hash-table
     iteration.  Returns (total RPC latency, RPC count) — the client's
     contribution to the recovery storm. *)
  let sid = Server.id server in
  let latency = ref (Server.recover_register server ~client:t.cid) in
  let rpcs = ref 1 in
  let fds =
    File.Tbl.fold (fun _ l acc -> List.rev_append !l acc) t.open_fd_table []
    |> List.filter (fun fd ->
           Dfs_trace.Ids.Server.equal fd.f_info.Fs_state.server sid)
    |> List.sort (fun a b ->
           compare (File.to_int a.f_info.id) (File.to_int b.f_info.id))
  in
  List.iter
    (fun fd ->
      latency :=
        !latency
        +. Server.recover_open server ~client:t.cid ~file:fd.f_info.id
             ~mode:fd.f_mode;
      incr rpcs)
    fds;
  List.iter
    (fun fid ->
      let file = File.of_int fid in
      match Fs_state.find t.fs file with
      | Some info when Dfs_trace.Ids.Server.equal info.server sid ->
        latency :=
          !latency +. Server.recover_dirty server ~client:t.cid ~file;
        incr rpcs
      | Some _ | None -> ())
    (Bc.dirty_file_ids t.cache);
  (!latency, !rpcs)

(* -- housekeeping ------------------------------------------------------------ *)

let tick t ~now = Bc.tick t.cache ~now

let adjust_memory t ~now =
  let bs = Dfs_util.Units.block_size in
  let total = t.cfg.memory_bytes / bs in
  let reserve = t.cfg.kernel_reserve_bytes / bs in
  let min_cache = t.cfg.min_cache_bytes / bs in
  let demand = Dfs_vm.Vm.demand_pages t.vm ~now in
  let avail = total - reserve - demand in
  let ceiling =
    int_of_float (t.cfg.max_cache_fraction *. float_of_int total)
  in
  let capacity = min ceiling (max min_cache avail) in
  Bc.set_capacity t.cache ~now capacity;
  (* Memory pressure: the VM system wants more than physical memory can
     give even with the cache at its floor — swap out the biggest
     process's dirty pages (this generates backing-file traffic). *)
  if avail < min_cache then begin
    match Dfs_vm.Vm.processes t.vm with
    | (pid, _) :: _ ->
      Dfs_vm.Vm.swap_out t.vm ~now ~pid ~fraction:0.4;
      ignore (take_pending t)
    | [] -> ()
  end

let cache_bytes t = Bc.resident_bytes t.cache

let take_activity t =
  let active = t.ops > 0 in
  t.ops <- 0;
  active

(* Post-simulation memory release: the per-file version and fd tables
   grow with every file the client ever touched; the cache and VM hold
   the block store and process state.  Counters ([Bc.stats], [traffic])
   survive, so post-run analyses keep working. *)
let release_sim_state t =
  File.Tbl.reset t.versions;
  File.Tbl.reset t.open_fd_table;
  Bc.drop_contents t.cache;
  Dfs_vm.Vm.drop_state t.vm
