module User = Dfs_trace.Ids.User
module Process = Dfs_trace.Ids.Process
module Rng = Dfs_util.Rng

(* A host with console activity in the last this-many seconds is not a
   migration target (Sprite waited for idleness). *)
let idle_threshold = 120.0

let max_jobs_per_host = 2

type t = {
  n_clients : int;
  load : int array;  (* running migrated jobs per host *)
  last_console : float array;
  history : int list User.Tbl.t;  (* recently used hosts, newest first *)
  mutable next_pid : int;
}

let create ~n_clients ?(pid_base = 0) () =
  {
    n_clients;
    load = Array.make n_clients 0;
    last_console = Array.make n_clients neg_infinity;
    history = User.Tbl.create 64;
    next_pid = pid_base;
  }

let fresh_pid t =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  Process.of_int pid

let note_home_activity t ~host ~now = t.last_console.(host) <- now

let eligible t ~home ~now host =
  host <> home
  && t.load.(host) < max_jobs_per_host
  && now -. t.last_console.(host) > idle_threshold

let pick_host t ~rng ~user ~home ~now =
  let history =
    Option.value ~default:[] (User.Tbl.find_opt t.history user)
  in
  (* Reuse a previous host when it is still idle... *)
  let reused = List.find_opt (eligible t ~home ~now) history in
  let choice =
    match reused with
    | Some h -> Some h
    | None ->
      (* ...otherwise scan from a random starting point. *)
      let start = Rng.int rng t.n_clients in
      let rec scan i =
        if i >= t.n_clients then None
        else begin
          let host = (start + i) mod t.n_clients in
          if eligible t ~home ~now host then Some host else scan (i + 1)
        end
      in
      scan 0
  in
  (match choice with
  | Some host ->
    let history = host :: List.filter (( <> ) host) history in
    let history = if List.length history > 4 then List.filteri (fun i _ -> i < 4) history else history in
    User.Tbl.replace t.history user history
  | None -> ());
  choice

let m_jobs = Dfs_obs.Metrics.counter "workload.migrations"

let job_started t ~host =
  t.load.(host) <- t.load.(host) + 1;
  Dfs_obs.Metrics.incr m_jobs;
  if Dfs_obs.Profiler.admit () then
    Dfs_obs.Profiler.emit ~cat:"migration" ~name:"start" ~t0:(Dfs_obs.Profiler.now ())
      ~dur:0.0
      [ ("host", Dfs_obs.Json.Int host) ]

let job_finished t ~host =
  t.load.(host) <- max 0 (t.load.(host) - 1);
  if Dfs_obs.Profiler.admit () then
    Dfs_obs.Profiler.emit ~cat:"migration" ~name:"finish" ~t0:(Dfs_obs.Profiler.now ())
      ~dur:0.0
      [ ("host", Dfs_obs.Json.Int host) ]

let migrated_load t ~host = t.load.(host)
