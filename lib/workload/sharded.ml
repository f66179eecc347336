module Cluster = Dfs_sim.Cluster
module Engine = Dfs_sim.Engine
module Network = Dfs_sim.Network
module Pdes = Dfs_sim.Pdes
module Rng = Dfs_util.Rng
module Pool = Dfs_util.Pool
module Sink = Dfs_trace.Sink
module Merge = Dfs_trace.Merge

(* -- single-partition windowed execution (the preset path) ----------------- *)

(* Every simulation now runs through the conservative-PDES executor.
   One partition exchanges no messages, so the window width is free; a
   coarse duration/256 grid keeps barrier overhead negligible while
   still exercising the window machinery (and its telemetry) on every
   run.  Slicing [run_until] into windows is output-invariant: the
   engine executes the same events in the same order, and nothing reads
   the clock between windows. *)
let drive cluster ~until =
  let la = (Network.config (Cluster.network cluster)).Network.remote_latency in
  let window = Float.max la (until /. 256.0) in
  let pdes = Pdes.create ~lookahead:la ~window [| Cluster.engine cluster |] in
  Pdes.run pdes ~until ();
  Cluster.publish cluster;
  Pdes.publish pdes

(* -- partitioned scale runs ------------------------------------------------ *)

type config = {
  n_clients : int;
  n_servers : int;
  seed : int;
  duration : float;  (** simulated seconds *)
  start_hour : float;
  fault_profile : Dfs_fault.Profile.t;
  partitions : int option;  (** None: {!auto_partitions} *)
  chunk_records : int option;
  spill_dir : string option;
}

let default_config =
  {
    n_clients = 160;
    n_servers = 4;
    seed = 42;
    duration = 3600.0;
    start_hour = 9.5;
    fault_profile = Dfs_fault.Profile.none;
    partitions = None;
    chunk_records = None;
    spill_dir = None;
  }

type result = {
  partitions : int;
  workers : int;
  users : int;
  barriers : int;
  remote_msgs : int;
  merged : Sink.chunks;
  clusters : Cluster.t array;
  drivers : Driver.t array;
}

(* One partition per ~64 clients, capped by the server count (every
   partition owns at least one home server).  A pure function of the
   cluster size — NOT of the worker count. *)
let auto_partitions ~n_clients ~n_servers =
  max 1 (min n_servers (n_clients / 64))

(* Contiguous block split of [total] into [parts]: block [p] starts at
   [base] and holds [count], with the remainder spread over the leading
   blocks. *)
let block ~total ~parts p =
  let q = total / parts and r = total mod parts in
  let count = q + if p < r then 1 else 0 in
  let base = (p * q) + min p r in
  (base, count)

(* Disjoint global id ranges for the ids partitions mint independently.
   Workload users start above the reserved 9000-9002 infrastructure
   identities so a large partition can never collide with them. *)
let user_block = 1_000_000

let user_base p = 10_000 + (p * user_block)

let pid_block = 50_000_000

let pid_base p = (p + 1) * pid_block

let file_block = 50_000_000

let file_base p = p * file_block

(* Scale the preset user population (30 regular + 40 occasional per 40
   clients) to a partition's client count, rounding to nearest. *)
let scaled_params ~n_clients =
  let scale n = max 1 (((n * n_clients) + 20) / 40) in
  {
    Params.default with
    Params.n_regular_users = scale Params.default.Params.n_regular_users;
    n_occasional_users = scale Params.default.Params.n_occasional_users;
  }

(* Cross-partition RPC traffic: each partition runs a periodic requester
   that reads a file homed in another partition.  All draws come from a
   dedicated per-partition stream keyed by the partition id (never the
   workload's), and the request targets [now + lookahead] — the earliest
   legal conservative send.  The server-side read perturbs the remote
   partition's cache and accounting, so delivery order is
   output-visible: the sharded byte-identity checks genuinely test the
   barrier protocol. *)
let wire_remote_traffic pdes ~clusters ~client_bases ~seed ~lookahead =
  let parts = Array.length clusters in
  if parts > 1 then
    Array.iteri
      (fun p cluster ->
        let rng = Rng.create (Rng.derive_seed seed (0x7e0_000 + p)) in
        let engine = Cluster.engine cluster in
        let n_local = (Cluster.cfg cluster).Cluster.n_clients in
        Engine.every engine ~interval:2.0
          ~start:(2.0 +. (0.37 *. float_of_int p))
          (fun () ->
            let dst = (p + 1 + Rng.int rng (parts - 1)) mod parts in
            let bytes = 8192 + Rng.int rng 57344 in
            let client =
              Dfs_trace.Ids.Client.of_int
                (client_bases.(p) + Rng.int rng n_local)
            in
            let at = Engine.now engine +. lookahead in
            Pdes.post pdes ~src:p ~dst ~at (fun () ->
                let served =
                  Cluster.remote_access clusters.(dst) ~client ~bytes
                in
                let dst_engine = Cluster.engine clusters.(dst) in
                let reply_at = Engine.now dst_engine +. lookahead in
                Pdes.post pdes ~src:dst ~dst:p ~at:reply_at (fun () ->
                    (* the reply lands on the requester's subnet *)
                    ignore
                      (Network.rpc
                         (Cluster.network clusters.(p))
                         ~kind:"remote-reply" ~bytes:served)))))
      clusters

let run ?workers cfg =
  if cfg.n_clients < 1 || cfg.n_servers < 1 then
    invalid_arg "Sharded.run: need at least one client and one server";
  let parts =
    match cfg.partitions with
    | Some p ->
      if p < 1 || p > cfg.n_servers || p > cfg.n_clients then
        invalid_arg "Sharded.run: partitions out of range";
      p
    | None ->
      auto_partitions ~n_clients:cfg.n_clients ~n_servers:cfg.n_servers
  in
  let chunk_records =
    Option.value cfg.chunk_records ~default:Sink.default_chunk_records
  in
  let clusters =
    Array.init parts (fun p ->
        let client_base, n_clients =
          block ~total:cfg.n_clients ~parts p
        in
        let server_base, n_servers =
          block ~total:cfg.n_servers ~parts p
        in
        Cluster.create
          {
            Cluster.default_config with
            Cluster.n_clients;
            n_servers;
            seed = Rng.derive_seed cfg.seed p;
            fault_profile = cfg.fault_profile;
            trace_chunk_records = chunk_records;
            trace_spill_dir = cfg.spill_dir;
            trace_spill_tag = Printf.sprintf "scale-part%d" p;
            client_id_base = client_base;
            server_id_base = server_base;
            file_id_base = file_base p;
            user_id_base = user_base p;
            pid_base = pid_base p;
            fault_schedule_servers = Some cfg.n_servers;
          })
  in
  let drivers =
    Array.map
      (fun cluster ->
        let params =
          scaled_params ~n_clients:(Cluster.cfg cluster).Cluster.n_clients
        in
        Driver.setup ~cluster ~params ~start_hour:cfg.start_hour ())
      clusters
  in
  Array.iter
    (fun d ->
      if Driver.n_users d > user_block then
        invalid_arg "Sharded.run: partition user count exceeds its id block")
    drivers;
  let lookahead =
    Array.fold_left
      (fun acc c ->
        Float.min acc
          (Network.config (Cluster.network c)).Network.remote_latency)
      infinity clusters
  in
  let engines = Array.map Cluster.engine clusters in
  let window =
    if parts = 1 then Float.max lookahead (cfg.duration /. 256.0)
    else lookahead
  in
  let pdes = Pdes.create ~lookahead ~window engines in
  let client_bases =
    Array.init parts (fun p -> fst (block ~total:cfg.n_clients ~parts p))
  in
  wire_remote_traffic pdes ~clusters ~client_bases ~seed:cfg.seed ~lookahead;
  (* The worker count picks only how many domains execute the windows:
     the partition layout above is a pure function of the configuration,
     so output is byte-identical at 1 vs N workers. *)
  let workers =
    min parts
      (match workers with Some w -> max 1 w | None -> Pool.default_jobs ())
  in
  let team = Pool.Team.create ~size:workers in
  Fun.protect
    ~finally:(fun () -> Pool.Team.shutdown team)
    (fun () -> Pdes.run pdes ~team ~until:cfg.duration ());
  (* Partition order makes the published histogram sums the same for any
     worker count. *)
  Array.iter Cluster.publish clusters;
  Pdes.publish pdes;
  let merged =
    let spill =
      Option.map
        (fun dir -> { Sink.dir; name = "scale-merged" })
        cfg.spill_dir
    in
    Dfs_obs.Profiler.span ~cat:"trace" "scale.merge" (fun () ->
        Merge.merge_chunks ~chunk_records ?spill ~scrub:Cluster.self_users
          (List.concat_map Cluster.server_chunks (Array.to_list clusters)))
  in
  {
    partitions = parts;
    workers;
    users = Array.fold_left (fun acc d -> acc + Driver.n_users d) 0 drivers;
    barriers = Pdes.barriers pdes;
    remote_msgs = Pdes.messages pdes;
    merged;
    clusters;
    drivers;
  }

(* Stable content digest of a chunked trace: CRC-32C chained over the
   text encoding of every record, in order.  Pure function of the record
   stream — the quantity the 1-vs-N-workers byte-identity matrix
   compares. *)
let digest chunks =
  let crc = ref Dfs_util.Crc32c.init in
  Sink.iter
    (fun r ->
      let line = Dfs_trace.Codec.encode r in
      crc := Dfs_util.Crc32c.update_string !crc line ~pos:0 ~len:(String.length line))
    chunks;
  Dfs_util.Crc32c.finalize !crc

let release t =
  Array.iter Cluster.release_sim_state t.clusters
