module Rng = Dfs_util.Rng

type stats = {
  mutable reboots : int;
  mutable partitions : int;
  mutable rpc_retries : int;
  mutable rpc_drops : int;
  mutable backoff_capped : int;
  mutable disk_errors : int;
  mutable recovery_rpcs : int;
  mutable offline_queued_bytes : int;
  mutable replayed_bytes : int;
}

type pending_writeback = { pw_file : int; pw_index : int; pw_bytes : int }

type t = {
  prof : Profile.t;
  sched : Schedule.t;
  server_id_base : int;
      (* global id of local server 0; the schedule always covers the
         full global cluster, queries translate local -> global *)
  rng : Rng.t;  (* drop / disk-error draws only; never the workload's *)
  queues : pending_writeback Queue.t array;
  st : stats;
  outages : Dfs_obs.Metrics.Acc.t;
  crash_losses : Dfs_obs.Metrics.Acc.t;
  stalls : Dfs_obs.Metrics.Acc.t;
}

let create ~profile ~n_servers ?(server_id_base = 0) ?schedule_servers
    ~horizon () =
  (* The schedule is generated for the FULL global cluster in every
     partition — generation is pure and cheap, and per-server streams
     are split in fixed server order, so partitioning never perturbs any
     server's outage windows (each partition just reads its own slice). *)
  let schedule_servers =
    Option.value schedule_servers ~default:(server_id_base + n_servers)
  in
  assert (schedule_servers >= server_id_base + n_servers);
  {
    prof = profile;
    sched = Schedule.generate ~profile ~n_servers:schedule_servers ~horizon;
    server_id_base;
    rng =
      Rng.create
        ((profile.Profile.seed * 48271)
        lxor 0xfa117
        lxor (server_id_base * 0x9E3779B1));
    queues = Array.init n_servers (fun _ -> Queue.create ());
    st =
      {
        reboots = 0;
        partitions = 0;
        rpc_retries = 0;
        rpc_drops = 0;
        backoff_capped = 0;
        disk_errors = 0;
        recovery_rpcs = 0;
        offline_queued_bytes = 0;
        replayed_bytes = 0;
      };
    outages = Dfs_obs.Metrics.Acc.create ();
    crash_losses = Dfs_obs.Metrics.Acc.create ();
    stalls = Dfs_obs.Metrics.Acc.create ();
  }

let profile t = t.prof

let schedule t = t.sched

let stats t = t.st

let outages t = t.outages

let crash_losses t = t.crash_losses

let stalls t = t.stalls

let crashes t = Dfs_obs.Metrics.Acc.count t.outages

let downtime_s t = Dfs_obs.Metrics.Acc.sum t.outages

(* Exact: every partial sum is an integer below 2^53. *)
let lost_bytes t = int_of_float (Dfs_obs.Metrics.Acc.sum t.crash_losses)

let rpc_stall_s t = Dfs_obs.Metrics.Acc.sum t.stalls

(* Callers guard with [Profiler.admit], so no attribute list is built
   for a span that is not kept. *)
let span ~now ~name ~dur attrs = Dfs_obs.Profiler.emit ~cat:"fault" ~name ~t0:now ~dur attrs

(* -- data-path queries ----------------------------------------------------- *)

let unreachable_until t ~server ~now =
  let server = t.server_id_base + server in
  let until = ref neg_infinity in
  (match Schedule.server_down t.sched ~server ~now with
  | Some w -> until := w.Schedule.up_at
  | None -> ());
  (match Schedule.partitioned t.sched ~now with
  | Some w -> if w.Schedule.up_at > !until then until := w.Schedule.up_at
  | None -> ());
  if !until > now then Some !until else None

let server_down t ~server ~now = unreachable_until t ~server ~now <> None

(* Jitter draw for retransmission [attempt] against [server]: a fresh
   RNG split keyed only by (profile seed, server, attempt) — never the
   injector's stateful stream — so the same retry always waits the same
   time no matter how work is sharded across domains ([DFS_JOBS=1] and
   [DFS_JOBS=N] are byte-identical). *)
let jitter_unit (p : Profile.t) ~server ~attempt =
  let key =
    (p.seed * 0x9E3779B1)
    lxor (server * 0x85EBCA77)
    lxor ((attempt + 1) * 0xC2B2AE3D)
  in
  Rng.float (Rng.create key)

(* The wait before retransmission [attempt] (0-based): the doubling
   timeout, spread by the profile's jitter fraction, clamped to the
   ceiling.  Also reports whether the ceiling clipped this step. *)
let backoff_step_capped (p : Profile.t) ~server ~attempt =
  let raw = Float.ldexp p.rpc_timeout attempt in
  let jittered =
    if p.rpc_backoff_jitter <= 0.0 then raw
    else raw *. (1.0 +. (p.rpc_backoff_jitter *. jitter_unit p ~server ~attempt))
  in
  if jittered >= p.rpc_backoff_max then (p.rpc_backoff_max, true)
  else (jittered, false)

let backoff_step p ~server ~attempt = fst (backoff_step_capped p ~server ~attempt)

(* The client retries on a (jittered) timeout that doubles up to the
   profile ceiling; it only notices the server is back on the retry that
   first lands after the outage ends, so the charged stall is the
   cumulative backoff that first reaches past [remaining].  Returns
   (stall, retries, ceiling-clipped steps). *)
let backoff_stall (p : Profile.t) ~server ~remaining =
  let rec go acc n capped =
    if acc >= remaining then (acc, n, capped)
    else
      let step, hit = backoff_step_capped p ~server ~attempt:n in
      go (acc +. step) (n + 1) (if hit then capped + 1 else capped)
  in
  go 0.0 0 0

let max_drop_retries = 8

let rpc_delay t ~server ~now =
  (* Jitter draws key on the GLOBAL server id so a given retry waits the
     same time whether the cluster is partitioned or not. *)
  let gserver = t.server_id_base + server in
  match unreachable_until t ~server ~now with
  | Some until ->
    let stall, retries, capped =
      backoff_stall t.prof ~server:gserver ~remaining:(until -. now)
    in
    t.st.rpc_retries <- t.st.rpc_retries + retries;
    t.st.backoff_capped <- t.st.backoff_capped + capped;
    Dfs_obs.Metrics.Acc.observe t.stalls stall;
    if Dfs_obs.Profiler.admit () then
      span ~now ~name:"rpc-stall" ~dur:stall
        [ ("server", Dfs_obs.Json.Int server); ("retries", Dfs_obs.Json.Int retries) ];
    stall
  | None ->
    if t.prof.rpc_drop_prob <= 0.0 then 0.0
    else begin
      (* Packet loss: geometric number of retransmissions, each costing
         the current (doubling, jittered) timeout. *)
      let rec go acc n =
        if n >= max_drop_retries then acc
        else if Rng.bernoulli t.rng t.prof.rpc_drop_prob then begin
          t.st.rpc_drops <- t.st.rpc_drops + 1;
          t.st.rpc_retries <- t.st.rpc_retries + 1;
          let step, hit = backoff_step_capped t.prof ~server:gserver ~attempt:n in
          if hit then t.st.backoff_capped <- t.st.backoff_capped + 1;
          go (acc +. step) (n + 1)
        end
        else acc
      in
      let stall = go 0.0 0 in
      if stall > 0.0 then Dfs_obs.Metrics.Acc.observe t.stalls stall;
      stall
    end

let disk_penalty t =
  if t.prof.disk_error_prob <= 0.0 then 0.0
  else if Rng.bernoulli t.rng t.prof.disk_error_prob then begin
    t.st.disk_errors <- t.st.disk_errors + 1;
    t.prof.disk_error_penalty
  end
  else 0.0

(* -- crash / recovery bookkeeping ------------------------------------------ *)

let note_crash t ~server ~now ~duration ~lost_bytes =
  Dfs_obs.Metrics.Acc.observe t.outages duration;
  Dfs_obs.Metrics.Acc.observe t.crash_losses (float_of_int lost_bytes);
  if Dfs_obs.Profiler.admit () then
    span ~now ~name:"crash" ~dur:duration
      [ ("server", Dfs_obs.Json.Int server); ("lost_bytes", Dfs_obs.Json.Int lost_bytes) ]

let note_reboot t ~server ~now =
  t.st.reboots <- t.st.reboots + 1;
  if Dfs_obs.Profiler.admit () then
    span ~now ~name:"reboot" ~dur:0.0 [ ("server", Dfs_obs.Json.Int server) ]

let note_partition t ~now ~duration =
  t.st.partitions <- t.st.partitions + 1;
  if Dfs_obs.Profiler.admit () then span ~now ~name:"partition" ~dur:duration []

let note_recovery_rpcs t n =
  t.st.recovery_rpcs <- t.st.recovery_rpcs + n

(* -- offline writeback queue ----------------------------------------------- *)

let queue_writeback t ~server ~file ~index ~bytes =
  Queue.add { pw_file = file; pw_index = index; pw_bytes = bytes }
    t.queues.(server);
  t.st.offline_queued_bytes <- t.st.offline_queued_bytes + bytes

let drain_writebacks t ~server f =
  let q = t.queues.(server) in
  while not (Queue.is_empty q) do
    let { pw_file; pw_index; pw_bytes } = Queue.pop q in
    t.st.replayed_bytes <- t.st.replayed_bytes + pw_bytes;
    f ~file:pw_file ~index:pw_index ~bytes:pw_bytes
  done

let queued_bytes t ~server =
  Queue.fold (fun acc pw -> acc + pw.pw_bytes) 0 t.queues.(server)
