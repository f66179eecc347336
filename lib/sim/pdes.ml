module Team = Dfs_util.Pool.Team

exception Lookahead_violation of { at : float; min_at : float }

(* One cross-partition message.  [seq] is the per-source emission
   counter: together with [(at, src)] it gives every message a unique,
   worker-count-independent rank, which is what makes delivery (and so
   the whole simulation) deterministic. *)
type msg = {
  at : float;
  src : int;
  seq : int;
  dst : int;
  action : unit -> unit;
}

type t = {
  engines : Engine.t array;
  lookahead : float;
  window : float;
  outboxes : msg list array;  (* per source partition, newest first *)
  seqs : int array;  (* also the messages each partition posted *)
  mutable floor : float;
  windows : Dfs_obs.Metrics.Acc.t;  (* each window's width; a barrier ends each *)
}

let m_barriers = Dfs_obs.Metrics.counter "sim.barrier.count"

let m_messages = Dfs_obs.Metrics.counter "sim.pdes.messages"

let m_window = Dfs_obs.Metrics.histogram "sim.pdes.window_s"

let g_lookahead = Dfs_obs.Metrics.gauge "sim.lookahead_s"

let g_partitions = Dfs_obs.Metrics.gauge "sim.pdes.partitions"

let create ~lookahead ?window engines =
  let n = Array.length engines in
  if n = 0 then invalid_arg "Pdes.create: no engines";
  if lookahead <= 0.0 then invalid_arg "Pdes.create: lookahead must be > 0";
  let window = Option.value window ~default:lookahead in
  (* With more than one partition the barrier exchange is only legal if
     no window outlives the lookahead: a message posted at the window
     floor must still land at-or-after the next floor. *)
  if n > 1 && window > lookahead then
    invalid_arg "Pdes.create: window wider than lookahead";
  if window <= 0.0 then invalid_arg "Pdes.create: window must be > 0";
  {
    engines;
    lookahead;
    window;
    outboxes = Array.make n [];
    seqs = Array.make n 0;
    floor = 0.0;
    windows = Dfs_obs.Metrics.Acc.create ();
  }

let partitions t = Array.length t.engines

let barriers t = Dfs_obs.Metrics.Acc.count t.windows

let messages t = Array.fold_left ( + ) 0 t.seqs

let post t ~src ~dst ~at action =
  let eng = t.engines.(src) in
  ignore t.engines.(dst);
  let min_at = Engine.now eng +. t.lookahead in
  if at < min_at then raise (Lookahead_violation { at; min_at });
  let m = { at; src; seq = t.seqs.(src); dst; action } in
  t.seqs.(src) <- t.seqs.(src) + 1;
  t.outboxes.(src) <- m :: t.outboxes.(src)

(* Total delivery order: timestamp, then source partition, then the
   source's emission sequence — unique and independent of how partitions
   were spread over workers. *)
let compare_msg a b =
  let c = Float.compare a.at b.at in
  if c <> 0 then c
  else
    let c = Int.compare a.src b.src in
    if c <> 0 then c else Int.compare a.seq b.seq

(* Barrier exchange, caller domain only: drain every outbox, impose the
   total order, and schedule into the destination heaps.  Insertion
   order into a heap is part of its tie-break (via the engine's own
   seq), so the sort is what keeps destination pop order deterministic. *)
let deliver t =
  let n = Array.length t.engines in
  let all = ref [] in
  for src = n - 1 downto 0 do
    all := List.rev_append t.outboxes.(src) !all;
    t.outboxes.(src) <- []
  done;
  match !all with
  | [] -> ()
  | msgs ->
    let msgs = List.stable_sort compare_msg msgs in
    List.iter
      (fun m -> ignore (Engine.schedule t.engines.(m.dst) ~at:m.at m.action))
      msgs

let run t ?team ~until () =
  let n = Array.length t.engines in
  let workers =
    match team with
    | Some tm -> min (Team.size tm) n
    | None -> 1
  in
  let busy = Array.make workers 0.0 in
  let stall = Array.make workers 0.0 in
  t.floor <-
    Array.fold_left
      (fun acc e -> Float.min acc (Engine.now e))
      infinity t.engines;
  Dfs_obs.Metrics.set g_lookahead t.lookahead;
  Dfs_obs.Metrics.set g_partitions (float_of_int n);
  Dfs_obs.Profiler.span ~cat:"pdes" "pdes.run" (fun () ->
      while t.floor < until do
        let win_end = Float.min until (t.floor +. t.window) in
        Dfs_obs.Metrics.Acc.observe t.windows (win_end -. t.floor);
        let phase0 = Unix.gettimeofday () in
        let phase_busy = Array.make workers 0.0 in
        (* Fixed partition -> worker affinity (p mod workers): every
           effect-suspended process resumes on the same domain for the
           whole run, and per-worker work assignment is independent of
           scheduling noise. *)
        let step m =
          let t0 = Unix.gettimeofday () in
          let p = ref m in
          while !p < n do
            Engine.run_window t.engines.(!p) ~floor:t.floor win_end;
            p := !p + workers
          done;
          phase_busy.(m) <- Unix.gettimeofday () -. t0
        in
        (match team with
        | Some tm when workers > 1 -> Team.run tm step
        | _ -> step 0);
        let phase = Unix.gettimeofday () -. phase0 in
        for m = 0 to workers - 1 do
          busy.(m) <- busy.(m) +. phase_busy.(m);
          (* Time this worker spent parked at the barrier while slower
             shards finished the window. *)
          stall.(m) <- stall.(m) +. Float.max 0.0 (phase -. phase_busy.(m))
        done;
        deliver t;
        (* Fast-forward: when every partition's next event lies beyond
           the window end, jump the floor straight there instead of
           turning empty windows into barrier overhead. *)
        let next =
          Array.fold_left
            (fun acc e ->
              match Engine.next_time e with
              | None -> acc
              | Some x -> Float.min acc x)
            infinity t.engines
        in
        t.floor <-
          (if next > win_end then Float.min until next else win_end)
      done);
  (* Per-shard utilization gauges: busy = executing events, stall =
     parked at window barriers waiting for slower shards. *)
  for m = 0 to workers - 1 do
    let module M = Dfs_obs.Metrics in
    M.set (M.gauge (Printf.sprintf "sim.shard%d.busy_s" m)) busy.(m);
    M.set (M.gauge (Printf.sprintf "sim.shard%d.stall_s" m)) stall.(m)
  done

let publish t =
  Dfs_obs.Metrics.add m_barriers (barriers t);
  Dfs_obs.Metrics.add m_messages (messages t);
  Dfs_obs.Metrics.merge m_window t.windows
