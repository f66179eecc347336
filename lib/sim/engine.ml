type event = {
  time : float;
  seq : int;  (* FIFO tie-break for simultaneous events *)
  action : unit -> unit;
  mutable cancelled : bool;
  mutable in_heap : bool;
      (* Still queued, so a cancellation should count against the heap's
         cancelled-pending total; cleared on pop and on compaction. *)
}

module Event_order = struct
  type t = event

  let compare a b =
    let c = Float.compare a.time b.time in
    if c <> 0 then c else Int.compare a.seq b.seq

  (* Slot filler for the heap: popped events must not stay reachable
     through the backing array, or their action closures (and everything
     those capture) survive until the slot is overwritten. *)
  let dummy =
    { time = neg_infinity; seq = -1; action = ignore; cancelled = true; in_heap = false }
end

module H = Dfs_util.Heap.Make (Event_order)

type t = {
  heap : H.t;
  mutable clock : float;
  mutable next_seq : int;  (* also the count of events ever scheduled *)
  mutable executed : int;
  mutable cancellations : int;
  mutable compactions : int;
  queue_depth : Dfs_obs.Metrics.Acc.t;  (* sampled every 64th event *)
  mutable cancelled_pending : int;
      (* Cancelled events still sitting in the heap.  Lazy deletion is
         cheap until a workload cancels most of what it schedules (e.g.
         timeouts that almost always get cut short); once more than half
         the queue is dead weight we compact in place rather than let
         pops and pushes churn O(log dead) forever. *)
  mutable spans : Dfs_obs.Profiler.stream option;
      (* This simulation's sim-time spans, installed on whichever domain
         runs the engine. *)
}

type handle = event

let create () =
  {
    heap = H.create ();
    clock = 0.0;
    next_seq = 0;
    executed = 0;
    cancellations = 0;
    compactions = 0;
    queue_depth = Dfs_obs.Metrics.Acc.create ();
    cancelled_pending = 0;
    spans = None;
  }

let now t = t.clock

let record_spans t ~label =
  t.spans <- Dfs_obs.Profiler.stream ~label ~now:(fun () -> t.clock)

let schedule t ~at action =
  assert (at >= t.clock);
  let ev =
    { time = at; seq = t.next_seq; action; cancelled = false; in_heap = true }
  in
  t.next_seq <- t.next_seq + 1;
  H.push t.heap ev;
  ev

let schedule_in t ~delay action =
  assert (delay >= 0.0);
  schedule t ~at:(t.clock +. delay) action

let at t time action = ignore (schedule t ~at:(Float.max time t.clock) action)

let pending t = H.length t.heap

let live_pending t = H.length t.heap - t.cancelled_pending

(* Post-simulation memory release: drop the queue (periodic daemons
   re-arm themselves, so it is never empty when a run stops) and with it
   every queued action closure and whatever those capture. *)
let drop_pending t =
  H.clear t.heap;
  t.cancelled_pending <- 0

(* Compact only when the dead fraction dominates and the heap is big
   enough for the O(n) sweep to pay for itself. *)
let compaction_threshold = 64

let maybe_compact t =
  if
    t.cancelled_pending >= compaction_threshold
    && 2 * t.cancelled_pending > H.length t.heap
  then begin
    H.filter_in_place t.heap (fun ev ->
        if ev.cancelled then begin
          ev.in_heap <- false;
          false
        end
        else true);
    t.cancelled_pending <- 0;
    t.compactions <- t.compactions + 1
  end

let cancel t ev =
  if not ev.cancelled then begin
    ev.cancelled <- true;
    t.cancellations <- t.cancellations + 1;
    if ev.in_heap then begin
      t.cancelled_pending <- t.cancelled_pending + 1;
      maybe_compact t
    end
  end

let every t ~interval ?start action =
  assert (interval > 0.0);
  let first = match start with Some s -> s | None -> t.clock +. interval in
  let rec fire () =
    action ();
    ignore (schedule_in t ~delay:interval fire)
  in
  ignore (schedule t ~at:first fire)

exception Below_floor of { time : float; floor : float }

let run_events t ~floor horizon =
  let continue = ref true in
  while !continue do
    match H.peek t.heap with
    | None -> continue := false
    | Some ev when ev.time > horizon -> continue := false
    | Some _ ->
      let ev = H.pop_exn t.heap in
      ev.in_heap <- false;
      if ev.cancelled then t.cancelled_pending <- t.cancelled_pending - 1
      else begin
        (* Conservative-PDES safety net: a live event below the window
           floor means a cross-shard message arrived late — the lookahead
           contract was violated somewhere, and the run is not
           reproducible.  Fail loudly rather than execute out of order. *)
        if ev.time < floor then
          raise (Below_floor { time = ev.time; floor });
        t.clock <- ev.time;
        t.executed <- t.executed + 1;
        (* Sampling every 64th event keeps the histogram off the hot
           path while still seeing every phase of the run. *)
        if t.executed land 63 = 0 then
          Dfs_obs.Metrics.Acc.observe t.queue_depth
            (float_of_int (H.length t.heap));
        ev.action ()
      end
  done;
  if horizon > t.clock then t.clock <- horizon

(* Every run stamps and files its spans as this simulation's, whichever
   PDES worker executes it. *)
let run_core t ~floor horizon =
  match t.spans with
  | None -> run_events t ~floor horizon
  | Some s -> Dfs_obs.Profiler.recording s (fun () -> run_events t ~floor horizon)

let run_until t horizon = run_core t ~floor:neg_infinity horizon

let run_window t ~floor horizon = run_core t ~floor horizon

(* Earliest queued live-or-cancelled event time: cancelled events are
   still a conservative (early) bound, and using the raw peek keeps the
   answer independent of compaction timing. *)
let next_time t =
  match H.peek t.heap with None -> None | Some ev -> Some ev.time

let events_executed t = t.executed

let scheduled t = t.next_seq

let cancelled t = t.cancellations

let compactions t = t.compactions

let queue_depth t = t.queue_depth

let spans t = t.spans

(* -- processes via effects ------------------------------------------------ *)

type _ Effect.t += Sleep : float -> unit Effect.t

let sleep d =
  match Effect.perform (Sleep (Float.max 0.0 d)) with
  | () -> ()
  | exception Effect.Unhandled (Sleep _) ->
    invalid_arg "Engine.sleep: called outside a spawned process"

(* The handler belongs to the [spawn] that started the process and
   schedules its continuation on that engine.  A [sleep] reaches the
   innermost handler, so processes of an engine run from inside another
   engine's process stay on their own queue. *)
let spawn t ?at f =
  let open Effect.Deep in
  let handler =
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Sleep d ->
            Some
              (fun (k : (a, _) continuation) ->
                ignore (schedule_in t ~delay:d (fun () -> continue k ())))
          | _ -> None);
    }
  in
  let at = match at with Some a -> a | None -> t.clock in
  ignore (schedule t ~at (fun () -> match_with f () handler))
