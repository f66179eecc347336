module Ids = Dfs_trace.Ids
module Record = Dfs_trace.Record
module Rng = Dfs_util.Rng
module Dist = Dfs_util.Dist
module Engine = Dfs_sim.Engine
module Client = Dfs_sim.Client
module Cluster = Dfs_sim.Cluster
module Cred = Dfs_sim.Cred
module Fs = Dfs_sim.Fs_state

type app = Edit | Compile | Pmake | Mail | Doc | Shell | Big_sim

let pick (mix : Params.app_mix) rng =
  Rng.pick_weighted rng
    [
      (Edit, mix.edit);
      (Compile, mix.compile);
      (Pmake, mix.pmake);
      (Mail, mix.mail);
      (Doc, mix.doc);
      (Shell, mix.shell);
      (Big_sim, mix.big_sim);
    ]

type ctx = {
  cluster : Cluster.t;
  params : Params.t;
  ns : Namespace.t;
  board : Migration.t;
  rng : Dfs_util.Rng.t;
  user : Ids.User.t;
  group : Params.group;
  home : int;
  uses_migration : bool;
}

(* -- plumbing -------------------------------------------------------------- *)

let client ctx host = Cluster.client ctx.cluster host

let now ctx = Engine.now (Cluster.engine ctx.cluster)

let fresh_cred ctx ~host ~migrated =
  Cred.make ~user:ctx.user
    ~pid:(Migration.fresh_pid ctx.board)
    ~client:(Cluster.client_id ctx.cluster host)
    ~migrated

let sample_int ctx d = Dist.sample_int d ctx.rng

let proc_time ctx bytes =
  float_of_int (max 0 bytes) /. ctx.params.process_rate

(* Launch the application binary: code/init-data page faults through the
   client cache, heap for the process's dirty pages. *)
let exec ctx c cred name =
  let bin = Namespace.pick_binary ctx.ns ~rng:ctx.rng ~name in
  Client.exec_process c ~cred ~exe:bin.exe ~code_bytes:bin.code_bytes
    ~data_bytes:bin.data_bytes;
  Client.grow_process c ~cred ~heap_bytes:(sample_int ctx ctx.params.heap_dist)

let exit_proc c cred = Client.exit_process c ~cred

(* -- file-access idioms ----------------------------------------------------- *)

(* Read a file: usually whole-file sequential, sometimes a partial
   sequential run, rarely random (seek-read pairs) — Table 3's mix. *)
let read_file ctx c cred (info : Fs.file_info) =
  if info.size > 0 || true then begin
    let fd = Client.open_file c ~cred ~info ~mode:Record.Read_only ~created:false in
    let u = Rng.float ctx.rng in
    let bytes =
      if u < ctx.params.random_access_probability && info.size > 8192 then begin
        let touches = 3 + Rng.int ctx.rng 10 in
        let total = ref 0 in
        for _ = 1 to touches do
          let pos = Rng.int ctx.rng (max 1 (info.size - 4096)) in
          Client.seek c fd ~pos;
          total := !total + Client.read c fd ~len:(512 + Rng.int ctx.rng 4096)
        done;
        !total
      end
      else if
        u < ctx.params.random_access_probability
            +. ctx.params.partial_read_probability
        && info.size > 2048
      then begin
        let frac = 0.2 +. (0.6 *. Rng.float ctx.rng) in
        Client.read c fd ~len:(int_of_float (frac *. float_of_int info.size))
      end
      else Client.read c fd ~len:info.size
    in
    Engine.sleep (proc_time ctx bytes);
    (* some opens are held while the user or program mulls the contents *)
    if Rng.bernoulli ctx.rng 0.3 then
      Engine.sleep (Rng.uniform ctx.rng 0.15 2.5);
    Client.close c fd
  end

(* Overwrite a file in place: truncate to zero then write the new
   contents (how editors and compilers replace outputs; the truncate is
   the "death" of the old bytes in Figure 4). *)
let overwrite ?(fsync_p = 0.0) ctx c cred (info : Fs.file_info) ~size =
  (* editors and compilers sometimes truncate-then-rewrite, sometimes
     write over the old contents in place *)
  if info.size > 0 && Rng.bernoulli ctx.rng 0.5 then
    Client.truncate c ~cred ~info;
  let fd = Client.open_file c ~cred ~info ~mode:Record.Write_only ~created:false in
  ignore (Client.write c fd ~len:size);
  Engine.sleep (proc_time ctx size);
  if Rng.bernoulli ctx.rng fsync_p then Client.fsync c fd;
  Client.close c fd

(* Create and write a brand-new file; returns its info. *)
let create_file ?(fsync_p = 0.0) ctx c cred ~size =
  let info = Namespace.new_file ctx.ns ~now:(now ctx) ~size:0 in
  let fd = Client.open_file c ~cred ~info ~mode:Record.Write_only ~created:true in
  ignore (Client.write c fd ~len:size);
  Engine.sleep (proc_time ctx size);
  if Rng.bernoulli ctx.rng fsync_p then Client.fsync c fd;
  Client.close c fd;
  info

(* Append: open, seek to the end, write a little.  Partial-block appends
   are what cause write fetches and head-to-high-water writebacks. *)
let append ?(fsync_p = 0.0) ctx c cred (info : Fs.file_info) ~bytes =
  let fd = Client.open_file c ~cred ~info ~mode:Record.Write_only ~created:false in
  if info.size > 0 then Client.seek c fd ~pos:info.size;
  ignore (Client.write c fd ~len:bytes);
  Engine.sleep (proc_time ctx bytes);
  if Rng.bernoulli ctx.rng fsync_p then Client.fsync c fd;
  Client.close c fd

(* Archive-style library read: the linker seeks all over the archive
   pulling in members — many repositions, classified random. *)
let read_library ctx c cred (info : Fs.file_info) =
  let fd = Client.open_file c ~cred ~info ~mode:Record.Read_only ~created:false in
  let touches = 8 + Rng.int ctx.rng 16 in
  let total = ref 0 in
  for _ = 1 to touches do
    if info.size > 8192 then begin
      let pos = Rng.int ctx.rng (max 1 (info.size - 8192)) in
      Client.seek c fd ~pos
    end;
    total := !total + Client.read c fd ~len:(2048 + Rng.int ctx.rng 14336)
  done;
  Engine.sleep (proc_time ctx !total);
  Client.close c fd

(* Peek at the group status file in small reads; while the file is
   write-shared these pass through to the server one by one (the paper's
   "small I/O requests made by some applications"). *)
let read_status ctx c cred (info : Fs.file_info) =
  let fd = Client.open_file c ~cred ~info ~mode:Record.Read_only ~created:false in
  let tail = min info.size (16384 + Rng.int ctx.rng 49152) in
  if info.size > tail then Client.seek c fd ~pos:(info.size - tail);
  let k = 4 + Rng.int ctx.rng 12 in
  for _ = 1 to k do
    ignore (Client.read c fd ~len:(1024 + Rng.int ctx.rng 1024))
  done;
  Engine.sleep 0.05;
  Client.close c fd

(* Chunked transfers: at kernel-call level applications move big files in
   buffer-sized requests; during write-sharing each request passes through
   to the server individually, so chunking matters for Table 12's demand
   accounting. *)
let read_chunked ctx c cred (info : Fs.file_info) ~from ~bytes ~chunk =
  let fd = Client.open_file c ~cred ~info ~mode:Record.Read_only ~created:false in
  if from > 0 then Client.seek c fd ~pos:from;
  let remaining = ref bytes in
  while !remaining > 0 do
    let n = Client.read c fd ~len:(min chunk !remaining) in
    if n = 0 then remaining := 0
    else begin
      remaining := !remaining - n;
      Engine.sleep (proc_time ctx n)
    end
  done;
  Client.close c fd

let append_chunked ?(pace = 0.0) ctx c cred (info : Fs.file_info) ~bytes ~chunk =
  let fd = Client.open_file c ~cred ~info ~mode:Record.Write_only ~created:false in
  if info.size > 0 then Client.seek c fd ~pos:info.size;
  let written = ref 0 in
  while !written < bytes do
    let n = min chunk (bytes - !written) in
    ignore (Client.write c fd ~len:n);
    written := !written + n;
    Engine.sleep (proc_time ctx n +. pace)
  done;
  Client.close c fd

(* Watch the status file: re-read its tail every several seconds, the way
   users keep re-running a status command while a long simulation logs
   progress.  Re-reads inside a polling scheme's validity window are
   exactly the stale-data opportunities of Table 11. *)
let watch_status ctx c cred (info : Fs.file_info) =
  let rounds = 2 + Rng.int ctx.rng 3 in
  for _ = 1 to rounds do
    read_status ctx c cred info;
    (* mostly tens of seconds between checks, occasionally back-to-back *)
    Engine.sleep (Float.min 120.0 (2.0 +. Rng.exponential ctx.rng 35.0))
  done

(* -- the application models -------------------------------------------------- *)

let edit ctx =
  let c = client ctx ctx.home in
  let cred = fresh_cred ctx ~host:ctx.home ~migrated:false in
  Migration.note_home_activity ctx.board ~host:ctx.home ~now:(now ctx);
  exec ctx c cred "editor";
  let u = Namespace.user_files ctx.ns ctx.user in
  let src =
    (* a quarter of editing happens in the group's shared project tree *)
    if Rng.bernoulli ctx.rng 0.25 then
      Namespace.pick_group_source ctx.ns ~rng:ctx.rng ctx.group
    else u.sources.(Namespace.pick_source ctx.ns ~rng:ctx.rng u)
  in
  read_file ctx c cred src;
  (* the user types for a while *)
  Engine.sleep (Rng.uniform ctx.rng 5.0 90.0);
  if Rng.bernoulli ctx.rng ctx.params.edit_save_probability then begin
    if Rng.bernoulli ctx.rng 0.12 then begin
      (* small in-place fix: one open that both reads and writes *)
      let fd =
        Client.open_file c ~cred ~info:src ~mode:Record.Read_write
          ~created:false
      in
      ignore (Client.read c fd ~len:src.size);
      Client.seek c fd ~pos:0;
      ignore (Client.write c fd ~len:(min src.size (256 + Rng.int ctx.rng 2048)));
      Client.close c fd
    end
    else begin
      (* autosave temporary, then replace the file, then drop the temp:
         a classic seconds-long lifetime *)
      let save_tmp =
        if Rng.bernoulli ctx.rng 0.3 then
          Some (create_file ctx c cred ~size:(max 128 src.size))
        else None
      in
      let jitter = 0.85 +. (0.3 *. Rng.float ctx.rng) in
      let new_size =
        max 128 (int_of_float (float_of_int src.size *. jitter))
      in
      overwrite ~fsync_p:0.5 ctx c cred src ~size:new_size;
      Option.iter (fun tmp -> Client.delete c ~cred ~info:tmp) save_tmp
    end
  end;
  exit_proc c cred

let link_step ctx c cred u =
  (* relink the user's program from (a window of) their objects plus a
     library; incremental links do not touch every object every time *)
  let objects =
    Array.to_list u.Namespace.objects |> List.filter_map Fun.id
  in
  let objects =
    if List.length objects > 8 then List.filteri (fun i _ -> i < 8) objects
    else objects
  in
  if objects <> [] then begin
    List.iter
      (fun (o : Fs.file_info) -> if o.exists then read_file ctx c cred o)
      objects;
    let lib = (Namespace.random_binary ctx.ns ~rng:ctx.rng).exe in
    read_library ctx c cred lib;
    match u.Namespace.exe_out with
    | Some out when out.exists && Rng.bernoulli ctx.rng 0.3 ->
      (* incremental relink: patch the image in place — a write-only
         random access *)
      let fd =
        Client.open_file c ~cred ~info:out ~mode:Record.Write_only
          ~created:false
      in
      let k = 3 + Rng.int ctx.rng 6 in
      for _ = 1 to k do
        Client.seek c fd ~pos:(Rng.int ctx.rng (max 1 (out.size - 8192)));
        ignore (Client.write c fd ~len:(1024 + Rng.int ctx.rng 8192))
      done;
      Client.close c fd
    | Some out when out.exists ->
      overwrite ctx c cred out ~size:(sample_int ctx ctx.params.exe_size)
    | Some _ | None ->
      u.Namespace.exe_out <-
        Some (create_file ctx c cred ~size:(sample_int ctx ctx.params.exe_size))
  end

let compile ctx ~host ~migrated =
  let c = client ctx host in
  let cred = fresh_cred ctx ~host ~migrated in
  exec ctx c cred "cc";
  let u = Namespace.user_files ctx.ns ctx.user in
  let n_hdr = max 1 (sample_int ctx ctx.params.compile_headers) in
  for _ = 1 to n_hdr do
    read_file ctx c cred (Namespace.pick_header ctx.ns ~rng:ctx.rng)
  done;
  (* assembler temporary: born and deleted within the compile *)
  let tmp =
    create_file ctx c cred ~size:(sample_int ctx ctx.params.tmp_size)
  in
  (* the compiler reads several sources/includes but (re)writes only the
     object of the file that changed — reads dominate development *)
  let n_src = max 1 (sample_int ctx ctx.params.compile_sources) in
  let changed = Namespace.pick_source ctx.ns ~rng:ctx.rng u in
  for k = 0 to n_src - 1 do
    let idx =
      if k = 0 then changed else Namespace.pick_source ctx.ns ~rng:ctx.rng u
    in
    read_file ctx c cred u.sources.(idx)
  done;
  (* project builds also pull in the group's shared sources *)
  for _ = 1 to 1 + Rng.int ctx.rng 2 do
    read_file ctx c cred
      (Namespace.pick_group_source ctx.ns ~rng:ctx.rng ctx.group)
  done;
  let write_object idx =
    let obj_size = sample_int ctx ctx.params.object_size in
    match u.objects.(idx) with
    | Some obj when obj.exists -> overwrite ctx c cred obj ~size:obj_size
    | Some _ | None ->
      u.objects.(idx) <- Some (create_file ctx c cred ~size:obj_size)
  in
  write_object changed;
  (* a pmake job builds every target assigned to it *)
  if migrated then
    for _ = 2 to n_src do
      write_object (Namespace.pick_source ctx.ns ~rng:ctx.rng u)
    done;
  Client.delete c ~cred ~info:tmp;
  if (not migrated) && Rng.bernoulli ctx.rng ctx.params.link_probability then
    link_step ctx c cred u;
  exit_proc c cred

let pmake ctx =
  let c_home = client ctx ctx.home in
  let cred = fresh_cred ctx ~host:ctx.home ~migrated:false in
  Migration.note_home_activity ctx.board ~host:ctx.home ~now:(now ctx);
  exec ctx c_home cred "pmake";
  (* pmake reads the makefile and the directory *)
  let u = Namespace.user_files ctx.ns ctx.user in
  Client.read_dir c_home ~cred ~info:u.home_dir;
  let width = max 1 (sample_int ctx ctx.params.pmake_width) in
  (* pmake logs build progress to the group status file for the whole
     build — a long write hold that shells' status checks collide with *)
  let status = Namespace.group_status_file ctx.ns ctx.group in
  let sfd =
    Client.open_file c_home ~cred ~info:status ~mode:Record.Write_only
      ~created:false
  in
  if status.size > 0 then Client.seek c_home sfd ~pos:status.size;
  let remaining = ref width in
  let engine = Cluster.engine ctx.cluster in
  for _ = 1 to width do
    let host =
      if ctx.params.migration_enabled && ctx.uses_migration then
        Migration.pick_host ctx.board ~rng:ctx.rng ~user:ctx.user
          ~home:ctx.home ~now:(now ctx)
      else None
    in
    match host with
    | Some h ->
      Migration.job_started ctx.board ~host:h;
      Engine.spawn engine (fun () ->
          Fun.protect
            ~finally:(fun () ->
              Migration.job_finished ctx.board ~host:h;
              decr remaining)
            (fun () -> compile ctx ~host:h ~migrated:true))
    | None ->
      (* no idle host: run locally, unmigrated *)
      Engine.spawn engine (fun () ->
          Fun.protect
            ~finally:(fun () -> decr remaining)
            (fun () -> compile ctx ~host:ctx.home ~migrated:false))
  done;
  let last_logged = ref width in
  while !remaining > 0 do
    Engine.sleep 0.5;
    if !remaining < !last_logged then begin
      last_logged := !remaining;
      ignore (Client.write c_home sfd ~len:(48 + Rng.int ctx.rng 80))
    end
  done;
  Client.close c_home sfd;
  if status.size > 256 * 1024 then Client.truncate c_home ~cred ~info:status;
  (* the link runs at home and reads the freshly written remote objects:
     the server recalls their dirty blocks *)
  link_step ctx c_home cred u;
  exit_proc c_home cred

let mail ctx =
  let c = client ctx ctx.home in
  let cred = fresh_cred ctx ~host:ctx.home ~migrated:false in
  Migration.note_home_activity ctx.board ~host:ctx.home ~now:(now ctx);
  exec ctx c cred "mail";
  let u = Namespace.user_files ctx.ns ctx.user in
  (* read the new tail of the mailbox *)
  let mbox = u.mailbox in
  let fd = Client.open_file c ~cred ~info:mbox ~mode:Record.Read_only ~created:false in
  let tail = min mbox.size (2048 + Rng.int ctx.rng 16384) in
  if mbox.size > tail then Client.seek c fd ~pos:(mbox.size - tail);
  ignore (Client.read c fd ~len:tail);
  (* jump back to a few older messages *)
  let revisits = Rng.int ctx.rng 3 in
  for _ = 1 to revisits do
    if mbox.size > 4096 then begin
      Client.seek c fd ~pos:(Rng.int ctx.rng (mbox.size - 2048));
      ignore (Client.read c fd ~len:(512 + Rng.int ctx.rng 2048))
    end
  done;
  Engine.sleep (proc_time ctx tail);
  Client.close c fd;
  (* a new message arrives / is filed *)
  append ~fsync_p:0.8 ctx c cred mbox ~bytes:(512 + Rng.int ctx.rng 3584);
  (* mark messages read/deleted in place: a read/write, random access *)
  if Rng.bernoulli ctx.rng 0.35 && mbox.size > 8192 then begin
    let fd =
      Client.open_file c ~cred ~info:mbox ~mode:Record.Read_write
        ~created:false
    in
    let k = 2 + Rng.int ctx.rng 4 in
    for _ = 1 to k do
      Client.seek c fd ~pos:(Rng.int ctx.rng (mbox.size - 4096));
      ignore (Client.read c fd ~len:(256 + Rng.int ctx.rng 1024));
      Client.seek c fd ~pos:(Rng.int ctx.rng (mbox.size - 512));
      ignore (Client.write c fd ~len:(16 + Rng.int ctx.rng 64))
    done;
    Client.close c fd
  end;
  (* re-read a couple of old messages / drafts *)
  let rereads = 2 + Rng.int ctx.rng 4 in
  for _ = 1 to rereads do
    let idx = Namespace.pick_source ctx.ns ~rng:ctx.rng u in
    read_file ctx c cred u.sources.(idx)
  done;
  if Rng.bernoulli ctx.rng 0.25 then begin
    (* save one message out to its own file, sometimes delete an old one *)
    let msg = create_file ctx c cred ~size:(512 + Rng.int ctx.rng 4096) in
    if Rng.bernoulli ctx.rng 0.5 then Client.delete c ~cred ~info:msg
  end;
  exit_proc c cred

let doc ctx =
  let c = client ctx ctx.home in
  let cred = fresh_cred ctx ~host:ctx.home ~migrated:false in
  Migration.note_home_activity ctx.board ~host:ctx.home ~now:(now ctx);
  exec ctx c cred "troff";
  let u = Namespace.user_files ctx.ns ctx.user in
  let idx = Namespace.pick_source ctx.ns ~rng:ctx.rng u in
  let src = u.sources.(idx) in
  read_file ctx c cred src;
  (* fonts / macro packages *)
  for _ = 1 to 3 + Rng.int ctx.rng 3 do
    read_file ctx c cred (Namespace.pick_header ctx.ns ~rng:ctx.rng)
  done;
  let out_size = max 1024 (src.size * 6 / 5) in
  (match u.doc_out with
  | Some out when out.exists -> overwrite ctx c cred out ~size:out_size
  | Some _ | None -> u.doc_out <- Some (create_file ctx c cred ~size:out_size));
  exit_proc c cred

let shell ctx =
  let c = client ctx ctx.home in
  let cred = fresh_cred ctx ~host:ctx.home ~migrated:false in
  Migration.note_home_activity ctx.board ~host:ctx.home ~now:(now ctx);
  exec ctx c cred "sh";
  let u = Namespace.user_files ctx.ns ctx.user in
  Client.read_dir c ~cred ~info:u.home_dir;
  if Rng.bernoulli ctx.rng 0.5 then
    Client.read_dir c ~cred ~info:(Namespace.shared_dir ctx.ns ~rng:ctx.rng);
  let n = 7 + Rng.int ctx.rng 9 in
  for _ = 1 to n do
    let idx = Namespace.pick_source ctx.ns ~rng:ctx.rng u in
    read_file ctx c cred u.sources.(idx)
  done;
  (* sometimes page through a big binary or data file *)
  if Rng.bernoulli ctx.rng 0.15 then
    read_file ctx c cred (Namespace.random_binary ctx.ns ~rng:ctx.rng).exe;
  (* peek at (or keep watching) the group's status file — the read side
     of write-sharing and of Table 11's stale reads *)
  let status = Namespace.group_status_file ctx.ns ctx.group in
  if Rng.bernoulli ctx.rng 0.15 then watch_status ctx c cred status
  else if Rng.bernoulli ctx.rng 0.25 then read_status ctx c cred status;
  if Rng.bernoulli ctx.rng 0.4 then
    read_file ctx c cred
      (Namespace.pick_group_source ctx.ns ~rng:ctx.rng ctx.group);
  (* check the latest results batch in the group log *)
  if Rng.bernoulli ctx.rng 0.3 then begin
    let log = Namespace.group_log ctx.ns ctx.group in
    let bytes = min log.size (262144 + Rng.int ctx.rng 1572864) in
    if bytes > 0 then
      read_chunked ctx c cred log ~from:(log.size - bytes) ~bytes
        ~chunk:(64 * 1024)
  end;
  exit_proc c cred

let rec big_sim ctx =
  (* half the long simulations are offloaded to an idle machine — the
     paper notes migration is used for simulations as well as compiles *)
  Migration.note_home_activity ctx.board ~host:ctx.home ~now:(now ctx);
  let host, migrated =
    if ctx.params.migration_enabled && ctx.uses_migration
       && Rng.bernoulli ctx.rng 0.55 then
      match
        Migration.pick_host ctx.board ~rng:ctx.rng ~user:ctx.user
          ~home:ctx.home ~now:(now ctx)
      with
      | Some h -> (h, true)
      | None -> (ctx.home, false)
    else (ctx.home, false)
  in
  if migrated then Migration.job_started ctx.board ~host;
  Fun.protect
    ~finally:(fun () ->
      if migrated then Migration.job_finished ctx.board ~host)
    (fun () -> big_sim_on ctx ~host ~migrated)

and big_sim_on ctx ~host ~migrated =
  let c = client ctx host in
  let cred = fresh_cred ctx ~host ~migrated in
  exec ctx c cred "simulator";
  let u0 = Namespace.user_files ctx.ns ctx.user in
  (* clean up the previous run's output: by now its bytes are minutes old *)
  List.iter
    (fun (o : Fs.file_info) ->
      if o.exists then Client.delete c ~cred ~info:o)
    u0.stale_outputs;
  u0.stale_outputs <- [];
  let gp = Params.find_group ctx.params ctx.group in
  (* some runs merely shovel data (fast scans), others compute hard;
     offloaded (migrated) runs are the batchy data-shovelling kind, which
     is what makes migration traffic so bursty in Table 2 *)
  let compute_factor =
    if migrated || Rng.bernoulli ctx.rng 0.3 then 0.05 else 8.0
  in
  let u = Namespace.user_files ctx.ns ctx.user in
  (* the simulator's input: created once, re-read run after run *)
  let input =
    match List.find_opt (fun (i : Fs.file_info) -> i.exists) u.big_inputs with
    | Some i -> i
    | None ->
      (* users who harness idle machines run the biggest simulations *)
      let size = sample_int ctx gp.big_input_size in
      let size = if ctx.uses_migration then min (size * 2) (16 * 1048576) else size in
      let info = Namespace.new_file ctx.ns ~now:(now ctx) ~size in
      u.big_inputs <- info :: u.big_inputs;
      info
  in
  (* a long-running process with a big dirty heap *)
  Client.grow_process c ~cred ~heap_bytes:(min (input.size / 2) (8 * 1024 * 1024));
  (* status file held open for writing across the run: the concurrent
     write-sharing in Table 10 comes from here *)
  let status = Namespace.group_status_file ctx.ns ctx.group in
  (* check what the rest of the group is up to before logging our own run *)
  if status.size > 0 && Rng.bernoulli ctx.rng 0.35 then
    read_status ctx c cred status;
  let sfd =
    Client.open_file c ~cred ~info:status ~mode:Record.Write_only ~created:false
  in
  if status.size > 0 then Client.seek c sfd ~pos:status.size;
  (* read the input in a few large sequential gulps, computing as we go *)
  let fd = Client.open_file c ~cred ~info:input ~mode:Record.Read_only ~created:false in
  let chunk = max 65536 (input.size / 4) in
  let consumed = ref 0 in
  while !consumed < input.size do
    let n = Client.read c fd ~len:chunk in
    if n = 0 then consumed := input.size
    else begin
      consumed := !consumed + n;
      (* compute over this chunk, logging progress lines as we go *)
      let compute = compute_factor *. proc_time ctx n in
      let slices = max 1 (int_of_float (compute /. 0.5)) in
      for _ = 1 to min slices 40 do
        Engine.sleep (compute /. float_of_int (min slices 40));
        (* a progress line every few seconds of computing *)
        if Rng.bernoulli ctx.rng 0.3 then
          ignore (Client.write c sfd ~len:(64 + Rng.int ctx.rng 192))
      done;
      (* big heaps get partially paged out and back under pressure *)
      if Rng.bernoulli ctx.rng 0.35 then begin
        Client.swap_out_process c ~cred ~fraction:0.25;
        Client.swap_in_process c ~cred ~fraction:0.22
      end
    end
  done;
  Client.close c fd;
  (* many simulators make further passes over their input; offloaded runs
     are parameter sweeps that scan it several times *)
  let extra_passes =
    if migrated then 4 + Rng.int ctx.rng 4
    else if Rng.bernoulli ctx.rng 0.5 then 1
    else 0
  in
  for _ = 1 to extra_passes do
    read_file ctx c cred input
  done;
  (* results: often post-processed and thrown away (the cache-simulation
     user of traces 3-4), sometimes appended to a running results log,
     sometimes kept as future input *)
  let out_size = sample_int ctx gp.big_output_size in
  if Rng.bernoulli ctx.rng 0.35 then begin
    (* batch the results into the group's shared log: a megabyte-scale
       append in buffer-sized writes *)
    let log = Namespace.group_log ctx.ns ctx.group in
    (* results trickle out as the postprocessor formats them, so the log
       stays open (and write-shared with any readers) for a while *)
    append_chunked ~pace:0.08 ctx c cred log
      ~bytes:(min out_size (1024 * 1024))
      ~chunk:(128 * 1024);
    if log.size > 24 * 1024 * 1024 then Client.truncate c ~cred ~info:log
  end
  else begin
    let output = create_file ~fsync_p:0.25 ctx c cred ~size:out_size in
    if Rng.bernoulli ctx.rng 0.6 then begin
      (* post-process now, throw it away next run *)
      read_file ctx c cred output;
      u.stale_outputs <- output :: u.stale_outputs
    end
    else if Rng.bernoulli ctx.rng 0.3 then
      u.big_inputs <- output :: u.big_inputs
  end;
  (* the run is over: final status line, release the status file *)
  ignore (Client.write c sfd ~len:(64 + Rng.int ctx.rng 192));
  Client.close c sfd;
  if status.size > 256 * 1024 then Client.truncate c ~cred ~info:status;
  exit_proc c cred

let run ctx = function
  | Edit -> edit ctx
  | Compile -> compile ctx ~host:ctx.home ~migrated:false
  | Pmake -> pmake ctx
  | Mail -> mail ctx
  | Doc -> doc ctx
  | Shell -> shell ctx
  | Big_sim -> big_sim ctx
