(* Reference models of the trace folds whose tables are keyed by packed
   ints (Polling, Consistency_stats, the session sweep's handle matching
   and the write-shared event extraction), and of Lifetime, for the
   property in test_analysis.ml.  Each keeps the structure the fold had
   before its keys were packed: polymorphic [Hashtbl]s on
   [(client, file)] and [(client, pid, file)] tuples, one interval per
   polling run, a stack of open modes per handle, and per-file lists of
   openers.  Polling keeps its handle table, whose contents never
   decided a result.  Lifetime keeps every write-bearing access and
   sorts writes then deaths by time with one stable sort. *)

module B = Dfs_trace.Record_batch
module Ids = Dfs_trace.Ids
module Record = Dfs_trace.Record

let handle_key b i = (B.client b i, B.pid b i, B.file b i)

(* The stack of [(client, pid, file)] values, newest first. *)
let push tbl key v =
  let l = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
  Hashtbl.replace tbl key (v :: l)

let pop tbl key =
  match Hashtbl.find_opt tbl key with
  | Some (v :: rest) ->
    if rest = [] then Hashtbl.remove tbl key else Hashtbl.replace tbl key rest;
    Some v
  | Some [] | None -> None

let is_writer = function
  | Record.Write_only | Record.Read_write -> true
  | Record.Read_only -> false

let polling ~interval b : Dfs_consistency.Polling.report =
  let files = Hashtbl.create 16 and cache = Hashtbl.create 16 in
  let handles = Hashtbl.create 16 in
  let users = ref Ids.User.Set.empty and affected = ref Ids.User.Set.empty in
  let errors = ref 0 and opens = ref 0 and opens_err = ref 0 in
  let mig = ref 0 and mig_err = ref 0 in
  let t_min = ref infinity and t_max = ref neg_infinity in
  let state file =
    match Hashtbl.find_opt files file with
    | Some st -> st
    | None ->
      let st = (ref 0, ref (-1)) in
      Hashtbl.replace files file st;
      st
  in
  let publish client file =
    let version, writer = state file in
    incr version;
    writer := client;
    match Hashtbl.find_opt cache (client, file) with
    | Some (seen, _) -> seen := !version
    | None -> ()
  in
  let stale now client file =
    let version, writer = state file in
    match Hashtbl.find_opt cache (client, file) with
    | None ->
      Hashtbl.replace cache (client, file) (ref !version, ref now);
      false
    | Some (seen, checked) ->
      if now -. !checked >= interval then begin
        seen := !version;
        checked := now;
        false
      end
      else !seen < !version && !writer <> client
  in
  for i = 0 to B.length b - 1 do
    let time = B.time b i and user = B.user_id b i in
    let client = B.client b i and file = B.file b i in
    users := Ids.User.Set.add user !users;
    t_min := Float.min !t_min time;
    t_max := Float.max !t_max time;
    let error () =
      incr errors;
      affected := Ids.User.Set.add user !affected
    in
    match B.kind b i with
    | Record.Open { is_dir = false; mode; _ } ->
      incr opens;
      if B.migrated b i then incr mig;
      let reads = mode <> Record.Write_only in
      if reads && stale time client file then begin
        error ();
        incr opens_err;
        if B.migrated b i then incr mig_err
      end;
      push handles (handle_key b i) reads
    | Record.Close { bytes_written; _ } ->
      ignore (pop handles (handle_key b i));
      if bytes_written > 0 then publish client file
    | Record.Shared_read _ -> if stale time client file then error ()
    | Record.Shared_write _ -> publish client file
    | Record.Delete _ -> Hashtbl.remove files file
    | _ -> ()
  done;
  let hours = if !t_max > !t_min then (!t_max -. !t_min) /. 3600.0 else 0.0 in
  {
    interval;
    duration_hours = hours;
    errors = !errors;
    errors_per_hour = (if hours > 0.0 then float_of_int !errors /. hours else 0.0);
    users_seen = Ids.User.Set.cardinal !users;
    users_affected = Ids.User.Set.cardinal !affected;
    file_opens = !opens;
    opens_with_error = !opens_err;
    migrated_opens = !mig;
    migrated_opens_with_error = !mig_err;
    affected_user_ids = !affected;
    seen_user_ids = !users;
  }

type opener = { client : int; mutable count : int; mutable writers : int }

let consistency b : Dfs_analysis.Consistency_stats.t =
  let openers = Hashtbl.create 16 and last_writer = Hashtbl.create 16 in
  let modes = Hashtbl.create 16 in
  let opens = ref 0 and sharing = ref 0 and recalls = ref 0 in
  for i = 0 to B.length b - 1 do
    let cl = B.client b i and file = B.file b i in
    match B.kind b i with
    | Record.Open { is_dir = false; mode; _ } ->
      incr opens;
      (match Hashtbl.find_opt last_writer file with
      | Some w when w <> cl ->
        incr recalls;
        Hashtbl.remove last_writer file
      | _ -> ());
      let l = Option.value ~default:[] (Hashtbl.find_opt openers file) in
      let w = if is_writer mode then 1 else 0 in
      let l =
        match List.find_opt (fun o -> o.client = cl) l with
        | Some o ->
          o.count <- o.count + 1;
          o.writers <- o.writers + w;
          l
        | None -> { client = cl; count = 1; writers = w } :: l
      in
      Hashtbl.replace openers file l;
      if List.length l >= 2 && List.exists (fun o -> o.writers > 0) l then
        incr sharing;
      push modes (handle_key b i) mode
    | Record.Close { bytes_written; _ } -> (
      match pop modes (handle_key b i) with
      | None -> ()
      | Some mode ->
        let l = Option.value ~default:[] (Hashtbl.find_opt openers file) in
        (match List.find_opt (fun o -> o.client = cl) l with
        | Some o ->
          o.count <- o.count - 1;
          if is_writer mode then o.writers <- max 0 (o.writers - 1);
          if o.count <= 0 then begin
            match List.filter (fun o -> o.client <> cl) l with
            | [] -> Hashtbl.remove openers file
            | rest -> Hashtbl.replace openers file rest
          end
        | None -> ());
        if bytes_written > 0 then Hashtbl.replace last_writer file cl)
    | Record.Delete _ -> Hashtbl.remove last_writer file
    | _ -> ()
  done;
  { file_opens = !opens; sharing_opens = !sharing; recall_opens = !recalls }

(* An open's fields and its run state, until its close. *)
type pending = {
  r : Record.t;
  mutable run_start : int;
  mutable runs_rev : int list;
  mutable repositions : int;
}

let sessions b : Dfs_analysis.Session.access list =
  let handles = Hashtbl.create 16 and out = ref [] in
  for i = 0 to B.length b - 1 do
    let key = handle_key b i in
    match B.kind b i with
    | Record.Open { start_pos; _ } ->
      push handles key
        { r = B.get b i; run_start = start_pos; runs_rev = []; repositions = 0 }
    | Record.Reposition { pos_before; pos_after } -> (
      match Hashtbl.find_opt handles key with
      | Some (p :: _) ->
        let run = pos_before - p.run_start in
        if run > 0 then p.runs_rev <- run :: p.runs_rev;
        p.run_start <- pos_after;
        p.repositions <- p.repositions + 1
      | _ -> ())
    | Record.Close { size; final_pos; bytes_read; bytes_written } -> (
      match pop handles key with
      | Some ({ r = { kind = Record.Open o; _ } as r; _ } as p) ->
        let run = final_pos - p.run_start in
        if run > 0 then p.runs_rev <- run :: p.runs_rev;
        out :=
          {
            Dfs_analysis.Session.a_user = r.user;
            a_client = r.client;
            a_migrated = r.migrated;
            a_file = r.file;
            a_is_dir = o.is_dir;
            a_mode = o.mode;
            a_open_time = r.time;
            a_close_time = B.time b i;
            a_size_open = o.size;
            a_size_close = size;
            a_bytes_read = bytes_read;
            a_bytes_written = bytes_written;
            a_runs = List.rev p.runs_rev;
            a_repositions = p.repositions;
          }
          :: !out
      | _ -> ())
    | _ -> ()
  done;
  List.rev !out

let shared_events b : Dfs_consistency.Shared_events.stream list =
  let module E = Dfs_consistency.Shared_events in
  let shared = Hashtbl.create 16 and modes = Hashtbl.create 16 in
  let per_file = Hashtbl.create 16 in
  for i = 0 to B.length b - 1 do
    match B.kind b i with
    | Record.Shared_read _ | Record.Shared_write _ ->
      Hashtbl.replace shared (B.file b i) ()
    | _ -> ()
  done;
  for i = 0 to B.length b - 1 do
    let file = B.file b i and client = B.client b i in
    let emit ev =
      let l = Option.value ~default:[] (Hashtbl.find_opt per_file file) in
      Hashtbl.replace per_file file ({ E.time = B.time b i; ev } :: l)
    in
    if Hashtbl.mem shared file then
      match B.kind b i with
      | Record.Open { is_dir = false; mode; _ } ->
        push modes (handle_key b i) mode;
        emit (E.Open { client; writer = is_writer mode })
      | Record.Close _ -> (
        match pop modes (handle_key b i) with
        | Some mode -> emit (E.Close { client; writer = is_writer mode })
        | None -> ())
      | Record.Shared_read { offset; length } ->
        emit (E.Read { client; off = offset; len = length })
      | Record.Shared_write { offset; length } ->
        emit (E.Write { client; off = offset; len = length })
      | _ -> ()
  done;
  Hashtbl.fold
    (fun file events acc ->
      let events = List.rev events in
      let lens =
        List.filter_map
          (fun { E.ev; _ } ->
            match ev with
            | E.Read { len; _ } | E.Write { len; _ } -> Some len
            | E.Open _ | E.Close _ -> None)
          events
      in
      {
        E.file = Ids.File.of_int file;
        events;
        requested_bytes = List.fold_left ( + ) 0 lens;
        requests = List.length lens;
      }
      :: acc)
    per_file []
  |> List.sort (fun (a : E.stream) b -> Ids.File.compare a.file b.file)

let lifetime b : Dfs_analysis.Lifetime.t =
  let module Cdf = Dfs_util.Cdf in
  let by_files = Cdf.create Dfs_analysis.Lifetime.points
  and by_bytes = Cdf.create Dfs_analysis.Lifetime.points in
  let aged = ref 0 and unknown = ref 0 in
  let states = Hashtbl.create 16 in
  let writes =
    List.filter_map
      (fun (a : Dfs_analysis.Session.access) ->
        if (not a.a_is_dir) && a.a_bytes_written > 0 then
          Some (a.a_close_time, `Write a)
        else None)
      (sessions b)
  in
  let deaths =
    List.filter_map
      (fun i ->
        match B.kind b i with
        | Record.Delete { is_dir = false; size } | Record.Truncate { old_size = size }
          ->
          Some (B.time b i, `Death (B.file b i, size))
        | _ -> None)
      (List.init (B.length b) Fun.id)
  in
  List.iter
    (fun (now, ev) ->
      match ev with
      | `Write (a : Dfs_analysis.Session.access) -> (
        let file = Ids.File.to_int a.a_file in
        match Hashtbl.find_opt states file with
        | Some (oldest, newest) ->
          if a.a_bytes_written >= a.a_size_close && a.a_size_close > 0 then
            oldest := a.a_open_time;
          newest := a.a_close_time
        | None -> Hashtbl.replace states file (ref a.a_open_time, ref a.a_close_time))
      | `Death (file, size) -> (
        match Hashtbl.find_opt states file with
        | None -> incr unknown
        | Some (oldest, newest) ->
          incr aged;
          Cdf.add by_files ((now -. !oldest +. (now -. !newest)) /. 2.0);
          if size > 0 then
            for i = 0 to 7 do
              let f = (float_of_int i +. 0.5) /. 8.0 in
              Cdf.add_weighted by_bytes ~weight:(float_of_int size /. 8.0)
                (now -. (!oldest +. (f *. (!newest -. !oldest))))
            done;
          Hashtbl.remove states file))
    (List.sort (fun (x, _) (y, _) -> Float.compare x y) (writes @ deaths));
  { by_files; by_bytes; deaths_aged = !aged; deaths_unknown = !unknown }
