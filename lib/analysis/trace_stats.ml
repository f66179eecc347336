module Record = Dfs_trace.Record
module Ids = Dfs_trace.Ids
module B = Dfs_trace.Record_batch

type t = {
  duration_hours : float;
  different_users : int;
  users_of_migration : int;
  mbytes_read_files : float;
  mbytes_written_files : float;
  mbytes_read_dirs : float;
  open_events : int;
  close_events : int;
  reposition_events : int;
  delete_events : int;
  truncate_events : int;
  shared_read_events : int;
  shared_write_events : int;
}

let mb bytes = float_of_int bytes /. 1048576.0

type acc = {
  mutable users : Ids.User.Set.t;
  mutable migration_users : Ids.User.Set.t;
  (* the users last added to each set, so a run of records by one user
     adds it once *)
  mutable last_user : int;
  mutable last_migration_user : int;
  mutable opens : int;
  mutable closes : int;
  mutable seeks : int;
  mutable deletes : int;
  mutable truncates : int;
  mutable sreads : int;
  mutable swrites : int;
  mutable dir_bytes : int;
  mutable t_min : float;
  mutable t_max : float;
  (* Regular-file byte totals come from the access reconstruction so that
     directory closes are excluded. *)
  mutable read_bytes : int;
  mutable written_bytes : int;
}

let acc_create () =
  {
    users = Ids.User.Set.empty;
    migration_users = Ids.User.Set.empty;
    last_user = -1;
    last_migration_user = -1;
    opens = 0;
    closes = 0;
    seeks = 0;
    deletes = 0;
    truncates = 0;
    sreads = 0;
    swrites = 0;
    dir_bytes = 0;
    t_min = infinity;
    t_max = neg_infinity;
    read_bytes = 0;
    written_bytes = 0;
  }

let acc_record acc batch i =
  (* the first read is bounds-checked and validates [i]; the rest of the
     reads reuse the same index through the unsafe mirror *)
  let user = B.user_id batch i in
  let u = Ids.User.to_int user in
  if u <> acc.last_user then begin
    acc.last_user <- u;
    acc.users <- Ids.User.Set.add user acc.users
  end;
  if B.Unsafe.migrated batch i && u <> acc.last_migration_user then begin
    acc.last_migration_user <- u;
    acc.migration_users <- Ids.User.Set.add user acc.migration_users
  end;
  let time = B.Unsafe.time batch i in
  if time < acc.t_min then acc.t_min <- time;
  if time > acc.t_max then acc.t_max <- time;
  let tag = B.Unsafe.tag batch i in
  if tag = B.tag_open then acc.opens <- acc.opens + 1
  else if tag = B.tag_close then acc.closes <- acc.closes + 1
  else if tag = B.tag_reposition then acc.seeks <- acc.seeks + 1
  else if tag = B.tag_delete then acc.deletes <- acc.deletes + 1
  else if tag = B.tag_truncate then
    acc.truncates <- acc.truncates + 1
  else if tag = B.tag_dir_read then
    acc.dir_bytes <- acc.dir_bytes + B.Unsafe.a batch i
  else if tag = B.tag_shared_read then acc.sreads <- acc.sreads + 1
  else acc.swrites <- acc.swrites + 1

let acc_access acc (a : Session.access) =
  if not a.a_is_dir then begin
    acc.read_bytes <- acc.read_bytes + a.a_bytes_read;
    acc.written_bytes <- acc.written_bytes + a.a_bytes_written
  end

let acc_finish acc =
  {
    duration_hours =
      (if acc.t_max > acc.t_min then (acc.t_max -. acc.t_min) /. 3600.0
       else 0.0);
    different_users = Ids.User.Set.cardinal acc.users;
    users_of_migration = Ids.User.Set.cardinal acc.migration_users;
    mbytes_read_files = mb acc.read_bytes;
    mbytes_written_files = mb acc.written_bytes;
    mbytes_read_dirs = mb acc.dir_bytes;
    open_events = acc.opens;
    close_events = acc.closes;
    reposition_events = acc.seeks;
    delete_events = acc.deletes;
    truncate_events = acc.truncates;
    shared_read_events = acc.sreads;
    shared_write_events = acc.swrites;
  }

let of_batch batch =
  let acc = acc_create () in
  Session.sweep batch ~on_record:(acc_record acc) ~on_access:(acc_access acc);
  acc_finish acc

let pp ppf t =
  Format.fprintf ppf
    "@[<v>duration: %.1f h; users: %d (%d w/ migration);@ files: %.1f MB \
     read, %.1f MB written; dirs: %.1f MB read;@ events: %d open %d close \
     %d seek %d delete %d truncate %d sread %d swrite@]"
    t.duration_hours t.different_users t.users_of_migration
    t.mbytes_read_files t.mbytes_written_files t.mbytes_read_dirs
    t.open_events t.close_events t.reposition_events t.delete_events
    t.truncate_events t.shared_read_events t.shared_write_events
