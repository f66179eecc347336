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

module Itbl = Dfs_util.Itbl

(* One client's cached copy of a file: per interval, the version it last
   saw and when it last checked with the server. *)
type copy = { client : int; seen : int array; checked : float array }

(* Per file: its version, the client that last wrote it, and every
   client's copy.  A delete resets the version and the writer to those
   of a file never written and keeps the copies: it invalidates no
   client's cache. *)
type file_state = {
  mutable version : int;
  mutable last_writer : int;
  mutable copies : copy list;
}

(* [files] is keyed by file id, so an open or a write-close looks one key
   up whatever the number of intervals; the per-interval counts are
   arrays indexed like [intervals].  The close record carries no mode,
   but a close publishes exactly when it wrote bytes, whatever its open
   was, so no per-handle state is kept. *)
type acc = {
  intervals : float array;
  files : file_state Itbl.t;
  mutable users : Ids.User.Set.t;
  mutable last_user : int;  (* the user last added to [users] *)
  affected : Ids.User.Set.t array;
  errors : int array;
  mutable file_opens : int;
  opens_with_error : int array;
  mutable migrated_opens : int;
  migrated_opens_with_error : int array;
  mutable t_min : float;
  mutable t_max : float;
}

let acc_create ~intervals =
  let n = List.length intervals in
  {
    intervals = Array.of_list intervals;
    files = Itbl.create 1024;
    users = Ids.User.Set.empty;
    last_user = -1;
    affected = Array.make n Ids.User.Set.empty;
    errors = Array.make n 0;
    file_opens = 0;
    opens_with_error = Array.make n 0;
    migrated_opens = 0;
    migrated_opens_with_error = Array.make n 0;
    t_min = infinity;
    t_max = neg_infinity;
  }

let file_state acc file =
  match Itbl.find_opt acc.files file with
  | Some st -> st
  | None ->
    let st = { version = 0; last_writer = -1; copies = [] } in
    Itbl.replace acc.files file st;
    st

let no_copy = { client = -1; seen = [||]; checked = [||] }

let rec copy_of client = function
  | [] -> no_copy
  | c :: rest -> if c.client = client then c else copy_of client rest

let publish acc ~client ~file =
  let st = file_state acc file in
  st.version <- st.version + 1;
  st.last_writer <- client;
  (* the writer's own cache holds the new data *)
  let c = copy_of client st.copies in
  if c != no_copy then Array.fill c.seen 0 (Array.length c.seen) st.version

let incr_at a k = a.(k) <- a.(k) + 1

let read acc ~now ~client ~file ~user ~opened ~migrated =
  let st = file_state acc file in
  let c = copy_of client st.copies in
  let n = Array.length acc.intervals in
  if c == no_copy then
    st.copies <-
      { client; seen = Array.make n st.version; checked = Array.make n now }
      :: st.copies
  else
    for k = 0 to n - 1 do
      if now -. c.checked.(k) >= acc.intervals.(k) then begin
        c.seen.(k) <- st.version;
        c.checked.(k) <- now
      end
      else if c.seen.(k) < st.version && st.last_writer <> client then begin
        incr_at acc.errors k;
        if opened then incr_at acc.opens_with_error k;
        if opened && migrated then incr_at acc.migrated_opens_with_error k;
        acc.affected.(k) <- Ids.User.Set.add user acc.affected.(k)
      end
    done

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
      match B.Unsafe.open_mode batch i with
      | Record.Read_only | Record.Read_write ->
        read acc ~now:time ~client ~file ~user ~opened:true ~migrated
      | Record.Write_only -> ()
    end
  end
  else if tag = B.tag_close then begin
    if B.Unsafe.d batch i > 0 then publish acc ~client ~file
  end
  else if tag = B.tag_shared_read then
    read acc ~now:time ~client ~file ~user ~opened:false ~migrated:false
  else if tag = B.tag_shared_write then publish acc ~client ~file
  else if tag = B.tag_delete then
    match Itbl.find_opt acc.files file with
    | Some st ->
      st.version <- 0;
      st.last_writer <- -1
    | None -> ()

let acc_finish acc =
  let duration_hours =
    if acc.t_max > acc.t_min then (acc.t_max -. acc.t_min) /. 3600.0 else 0.0
  in
  List.init (Array.length acc.intervals) (fun k ->
      {
        interval = acc.intervals.(k);
        duration_hours;
        errors = acc.errors.(k);
        errors_per_hour =
          (if duration_hours > 0.0 then
             float_of_int acc.errors.(k) /. duration_hours
           else 0.0);
        users_seen = Ids.User.Set.cardinal acc.users;
        users_affected = Ids.User.Set.cardinal acc.affected.(k);
        file_opens = acc.file_opens;
        opens_with_error = acc.opens_with_error.(k);
        migrated_opens = acc.migrated_opens;
        migrated_opens_with_error = acc.migrated_opens_with_error.(k);
        affected_user_ids = acc.affected.(k);
        seen_user_ids = acc.users;
      })

let simulate ~interval batch =
  let acc = acc_create ~intervals:[ interval ] in
  for i = 0 to B.length batch - 1 do
    acc_record acc batch i
  done;
  List.hd (acc_finish acc)

let pct a b = if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b

let pct_users_affected r = pct r.users_affected r.users_seen

let pct_opens_with_error (r : report) = pct r.opens_with_error r.file_opens

let pct_migrated_opens_with_error (r : report) =
  pct r.migrated_opens_with_error r.migrated_opens
