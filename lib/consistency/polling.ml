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

module Itbl = Dfs_util.Itbl

(* Both tables are keyed by ints: [files] by file id, [cache] by
   [Itbl.pair client file].  The close record carries no mode, but a
   close publishes exactly when it wrote bytes, whatever its open was,
   so no per-handle state is kept. *)
type acc = {
  interval : float;
  files : file_state Itbl.t;
  cache : entry Itbl.t;
  mutable users : Ids.User.Set.t;
  mutable last_user : int;  (* the user last added to [users] *)
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
    files = Itbl.create 1024;
    cache = Itbl.create 4096;
    users = Ids.User.Set.empty;
    last_user = -1;
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
  match Itbl.find_opt acc.files file with
  | Some st -> st
  | None ->
    let st = { version = 0; last_writer = -1 } in
    Itbl.replace acc.files file st;
    st

let publish acc ~client ~file =
  let st = file_state acc file in
  st.version <- st.version + 1;
  st.last_writer <- client;
  (* the writer's own cache holds the new data *)
  match Itbl.find_opt acc.cache (Itbl.pair client file) with
  | Some e -> e.seen <- st.version
  | None -> ()

(* Returns true when this access read stale data. *)
let read acc ~now ~client ~file =
  let st = file_state acc file in
  let key = Itbl.pair client file in
  match Itbl.find_opt acc.cache key with
  | None ->
    Itbl.replace acc.cache key { seen = st.version; last_check = now };
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
  (* the time read is bounds-checked and validates [i]; the remaining
     reads reuse the same index through the unsafe mirror *)
  let time = B.time batch i and user = B.Unsafe.user_id batch i in
  if Ids.User.to_int user <> acc.last_user then begin
    acc.last_user <- Ids.User.to_int user;
    acc.users <- Ids.User.Set.add user acc.users
  end;
  if time < acc.t_min then acc.t_min <- time;
  if time > acc.t_max then acc.t_max <- time;
  let client = B.Unsafe.client batch i and file = B.Unsafe.file batch i in
  let tag = B.Unsafe.tag batch i in
  if tag = B.tag_open then begin
    if not (B.Unsafe.is_dir batch i) then begin
      acc.file_opens <- acc.file_opens + 1;
      let migrated = B.Unsafe.migrated batch i in
      if migrated then acc.migrated_opens <- acc.migrated_opens + 1;
      let reads =
        match B.Unsafe.open_mode batch i with
        | Record.Read_only | Record.Read_write -> true
        | Record.Write_only -> false
      in
      if reads && read acc ~now:time ~client ~file then begin
        acc.errors <- acc.errors + 1;
        acc.opens_with_error <- acc.opens_with_error + 1;
        if migrated then
          acc.migrated_opens_with_error <- acc.migrated_opens_with_error + 1;
        acc.affected <- Ids.User.Set.add user acc.affected
      end
    end
  end
  else if tag = B.tag_close then begin
    if B.Unsafe.d batch i > 0 then publish acc ~client ~file
  end
  else if tag = B.tag_shared_read then begin
    if read acc ~now:time ~client ~file then begin
      acc.errors <- acc.errors + 1;
      acc.affected <- Ids.User.Set.add user acc.affected
    end
  end
  else if tag = B.tag_shared_write then publish acc ~client ~file
  else if tag = B.tag_delete then Itbl.remove acc.files file

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
