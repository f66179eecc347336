type t = { jobs : int }

let default_jobs () =
  match Sys.getenv_opt "DFS_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let create ?jobs () =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  { jobs }

let jobs t = t.jobs

(* True while the current domain is executing a pool task, whatever the
   worker count, so nested use fails the same way regardless of
   DFS_JOBS. *)
let in_task : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let reject_nested () =
  if Domain.DLS.get in_task then
    invalid_arg "Dfs_util.Pool.map: nested use (map called from inside a task)"

(* Every task execution is a profiler span on the executing domain's
   stream, and its wall time feeds the worker's busy accumulator — the
   basis of the pool.* utilization gauges.  Purely observational: the
   task's result and ordering are untouched. *)
let run_task busy f x =
  Domain.DLS.set in_task true;
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      busy := !busy +. (Unix.gettimeofday () -. t0);
      Domain.DLS.set in_task false)
    (fun () -> Dfs_obs.Profiler.span ~cat:"pool" "pool.task" (fun () -> f x))

(* Per-map utilization gauges: how busy each worker domain was and what
   fraction of the map's worker-seconds did useful work.  Gauges are
   last-writer-wins, so a snapshot reflects the most recent [map]. *)
let publish_gauges ~workers ~wall busy =
  let module M = Dfs_obs.Metrics in
  Array.iteri
    (fun i b ->
      M.set (M.gauge (Printf.sprintf "pool.domain%d.busy_s" i)) b)
    busy;
  let total = Array.fold_left ( +. ) 0.0 busy in
  let capacity = float_of_int workers *. wall in
  M.set (M.gauge "pool.jobs") (float_of_int workers);
  M.set (M.gauge "pool.wall_s") wall;
  M.set (M.gauge "pool.busy_s") total;
  M.set (M.gauge "pool.idle_s") (Float.max 0.0 (capacity -. total));
  M.set (M.gauge "pool.utilization")
    (if capacity <= 0.0 then 0.0 else total /. capacity)

(* -- long-lived worker team ------------------------------------------------ *)

module Team = struct
  (* The only code that spawns domains.  A team keeps S-1 spawned
     domains parked on a condition variable, so a barrier-synchronized
     loop (the sharded simulation executes one [run] per lookahead
     window) re-enters its workers without spawning; [map] creates one
     for its call.  Each [run] bumps a generation counter, every member
     (the caller is member 0) executes [f member], and the caller waits
     until all spawned members check back in.

     Unlike [map], a team does not set the pool's [in_task] flag: it is
     a first-class entry point, and a team of size 1 degrades to a plain
     call in the calling domain, so creating one inside a pool task is
     legal. *)

  type t = {
    size : int;
    mutex : Mutex.t;
    work : Condition.t;  (* a new generation is ready, or shutdown *)
    idle : Condition.t;  (* a spawned member finished its generation *)
    mutable generation : int;
    mutable job : (int -> unit) option;
    mutable remaining : int;  (* spawned members still in the current gen *)
    mutable errors : (int * exn) list;  (* (member, exn), any order *)
    mutable stopping : bool;
    mutable domains : unit Domain.t array;
  }

  let size t = t.size

  let member_loop t m () =
    let seen = ref 0 in
    let continue = ref true in
    while !continue do
      Mutex.lock t.mutex;
      while t.generation = !seen && not t.stopping do
        Condition.wait t.work t.mutex
      done;
      if t.stopping then begin
        Mutex.unlock t.mutex;
        continue := false
      end
      else begin
        seen := t.generation;
        let job = Option.get t.job in
        Mutex.unlock t.mutex;
        let err = match job m with () -> None | exception e -> Some e in
        Mutex.lock t.mutex;
        (match err with
        | Some e -> t.errors <- (m, e) :: t.errors
        | None -> ());
        t.remaining <- t.remaining - 1;
        if t.remaining = 0 then Condition.broadcast t.idle;
        Mutex.unlock t.mutex
      end
    done

  let create ~size =
    let size = max 1 size in
    let t =
      {
        size;
        mutex = Mutex.create ();
        work = Condition.create ();
        idle = Condition.create ();
        generation = 0;
        job = None;
        remaining = 0;
        errors = [];
        stopping = false;
        domains = [||];
      }
    in
    t.domains <-
      Array.init (size - 1) (fun i -> Domain.spawn (member_loop t (i + 1)));
    t

  let run t f =
    if t.stopping then invalid_arg "Pool.Team.run: team is shut down";
    if t.size = 1 then f 0
    else begin
      Mutex.lock t.mutex;
      t.job <- Some f;
      t.errors <- [];
      t.remaining <- t.size - 1;
      t.generation <- t.generation + 1;
      Condition.broadcast t.work;
      Mutex.unlock t.mutex;
      let my_err = match f 0 with () -> None | exception e -> Some e in
      Mutex.lock t.mutex;
      while t.remaining > 0 do
        Condition.wait t.idle t.mutex
      done;
      let errors = t.errors in
      t.errors <- [];
      t.job <- None;
      Mutex.unlock t.mutex;
      let errors =
        (match my_err with Some e -> (0, e) :: errors | None -> errors)
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      in
      match errors with (_, e) :: _ -> raise e | [] -> ()
    end

  let shutdown t =
    if not t.stopping then begin
      Mutex.lock t.mutex;
      t.stopping <- true;
      Condition.broadcast t.work;
      Mutex.unlock t.mutex;
      Array.iter Domain.join t.domains;
      t.domains <- [||]
    end
end

let in_pool_task () = Domain.DLS.get in_task

let map pool f xs =
  reject_nested ();
  let items = Array.of_list xs in
  let n = Array.length items in
  if n = 0 then []
  else begin
    let workers = min pool.jobs n in
    let results : _ option array = Array.make n None in
    let errors : exn option array = Array.make n None in
    let busy = Array.make workers 0.0 in
    let next = Atomic.make 0 in
    let failed = Atomic.make false in
    (* Tasks are claimed in input order and a claimed task always runs,
       so when one fails every earlier input has run: claiming stops
       there, and the earliest failing input is still the one raised. *)
    let claim_loop m =
      let my_busy = ref 0.0 in
      let rec loop () =
        if not (Atomic.get failed) then begin
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            (match run_task my_busy f items.(i) with
            | v -> results.(i) <- Some v
            | exception e ->
              errors.(i) <- Some e;
              Atomic.set failed true);
            loop ()
          end
        end
      in
      loop ();
      busy.(m) <- !my_busy
    in
    let t0 = Unix.gettimeofday () in
    let team = Team.create ~size:workers in
    Fun.protect
      ~finally:(fun () -> Team.shutdown team)
      (fun () -> Team.run team claim_loop);
    publish_gauges ~workers ~wall:(Unix.gettimeofday () -. t0) busy;
    Array.iter (function Some e -> raise e | None -> ()) errors;
    Array.to_list (Array.map Option.get results)
  end
