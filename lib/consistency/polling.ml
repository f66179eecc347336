module Record = Dfs_trace.Record
module Ids = Dfs_trace.Ids
module B = Dfs_trace.Record_batch

type report = {
  interval : float;
  duration_hours : float;
  errors : int;
  errors_per_hour : float;
  users_seen : int;
  users_affected : int;
  file_opens : int;
  opens_with_error : int;
  migrated_opens : int;
  migrated_opens_with_error : int;
  affected_user_ids : Ids.User.Set.t;
  seen_user_ids : Ids.User.Set.t;
}

type entry = { mutable seen : int; mutable last_check : float }

type file_state = { mutable version : int; mutable last_writer : int }

type acc = {
  interval : float;
  files : file_state Ids.File.Tbl.t;
  cache : (int * int, entry) Hashtbl.t;  (* (client, file) -> entry *)
  (* the close record carries no mode; pair through handles *)
  handles : (int * int * int, bool list ref) Hashtbl.t;
  mutable users : Ids.User.Set.t;
  mutable affected : Ids.User.Set.t;
  mutable errors : int;
  mutable file_opens : int;
  mutable opens_with_error : int;
  mutable migrated_opens : int;
  mutable migrated_opens_with_error : int;
  mutable t_min : float;
  mutable t_max : float;
}

let acc_create ~interval =
  {
    interval;
    files = Ids.File.Tbl.create 1024;
    cache = Hashtbl.create 4096;
    handles = Hashtbl.create 1024;
    users = Ids.User.Set.empty;
    affected = Ids.User.Set.empty;
    errors = 0;
    file_opens = 0;
    opens_with_error = 0;
    migrated_opens = 0;
    migrated_opens_with_error = 0;
    t_min = infinity;
    t_max = neg_infinity;
  }

let file_state acc file =
  match Ids.File.Tbl.find_opt acc.files file with
  | Some st -> st
  | None ->
    let st = { version = 0; last_writer = -1 } in
    Ids.File.Tbl.replace acc.files file st;
    st

let publish acc ~client file =
  let st = file_state acc file in
  st.version <- st.version + 1;
  st.last_writer <- client;
  (* the writer's own cache holds the new data *)
  let key = (client, Ids.File.to_int file) in
  match Hashtbl.find_opt acc.cache key with
  | Some e -> e.seen <- st.version
  | None -> ()

(* Returns true when this access read stale data. *)
let read acc ~now ~client file =
  let st = file_state acc file in
  let key = (client, Ids.File.to_int file) in
  match Hashtbl.find_opt acc.cache key with
  | None ->
    Hashtbl.replace acc.cache key { seen = st.version; last_check = now };
    false
  | Some e ->
    if now -. e.last_check >= acc.interval then begin
      e.seen <- st.version;
      e.last_check <- now;
      false
    end
    else if e.seen < st.version && st.last_writer <> client then true
    else false

let acc_record acc batch i =
  let handle_key i = (B.client batch i, B.pid batch i, B.file batch i) in
  let time = B.time batch i and user = B.user_id batch i in
  acc.users <- Ids.User.Set.add user acc.users;
  if time < acc.t_min then acc.t_min <- time;
  if time > acc.t_max then acc.t_max <- time;
  let client = B.client batch i in
  let file () = B.file_id batch i in
  let tag = B.tag batch i in
  if tag = B.tag_open then begin
    if not (B.is_dir batch i) then begin
      acc.file_opens <- acc.file_opens + 1;
      let migrated = B.migrated batch i in
      if migrated then acc.migrated_opens <- acc.migrated_opens + 1;
      let reads =
        match B.open_mode batch i with
        | Record.Read_only | Record.Read_write -> true
        | Record.Write_only -> false
      in
      let stale = if reads then read acc ~now:time ~client (file ()) else false in
      if stale then begin
        acc.errors <- acc.errors + 1;
        acc.opens_with_error <- acc.opens_with_error + 1;
        if migrated then
          acc.migrated_opens_with_error <- acc.migrated_opens_with_error + 1;
        acc.affected <- Ids.User.Set.add user acc.affected
      end;
      let l =
        match Hashtbl.find_opt acc.handles (handle_key i) with
        | Some l -> l
        | None ->
          let l = ref [] in
          Hashtbl.replace acc.handles (handle_key i) l;
          l
      in
      l := reads :: !l
    end
  end
  else if tag = B.tag_close then begin
    let bytes_written = B.d batch i in
    match Hashtbl.find_opt acc.handles (handle_key i) with
    | Some ({ contents = _ :: rest } as l) ->
      l := rest;
      if rest = [] then Hashtbl.remove acc.handles (handle_key i);
      if bytes_written > 0 then publish acc ~client (file ())
    | Some { contents = [] } | None ->
      if bytes_written > 0 then publish acc ~client (file ())
  end
  else if tag = B.tag_shared_read then begin
    if read acc ~now:time ~client (file ()) then begin
      acc.errors <- acc.errors + 1;
      acc.affected <- Ids.User.Set.add user acc.affected
    end
  end
  else if tag = B.tag_shared_write then publish acc ~client (file ())
  else if tag = B.tag_delete then Ids.File.Tbl.remove acc.files (file ())

let acc_finish acc =
  let duration_hours =
    if acc.t_max > acc.t_min then (acc.t_max -. acc.t_min) /. 3600.0 else 0.0
  in
  {
    interval = acc.interval;
    duration_hours;
    errors = acc.errors;
    errors_per_hour =
      (if duration_hours > 0.0 then float_of_int acc.errors /. duration_hours
       else 0.0);
    users_seen = Ids.User.Set.cardinal acc.users;
    users_affected = Ids.User.Set.cardinal acc.affected;
    file_opens = acc.file_opens;
    opens_with_error = acc.opens_with_error;
    migrated_opens = acc.migrated_opens;
    migrated_opens_with_error = acc.migrated_opens_with_error;
    affected_user_ids = acc.affected;
    seen_user_ids = acc.users;
  }

let simulate ~interval batch =
  let acc = acc_create ~interval in
  for i = 0 to B.length batch - 1 do
    acc_record acc batch i
  done;
  acc_finish acc

let pct a b = if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b

let pct_users_affected r = pct r.users_affected r.users_seen

let pct_opens_with_error (r : report) = pct r.opens_with_error r.file_opens

let pct_migrated_opens_with_error (r : report) =
  pct r.migrated_opens_with_error r.migrated_opens
