module Record = Dfs_trace.Record
module Ids = Dfs_trace.Ids
module B = Dfs_trace.Record_batch

type report = {
  interval : float;
  avg_active_users : float;
  sd_active_users : float;
  max_active_users : int;
  avg_user_throughput : float;
  sd_user_throughput : float;
  peak_user_throughput : float;
  peak_total_throughput : float;
}

(* Interval [b] covers [t0 + b * interval, t0 + (b + 1) * interval).
   Every bucketed time is a record's time, so it is at most [t_end] and
   its bucket at most the last one: no clamp is needed while the trace
   is being read, and the interval count is settled at the end. *)
type acc = {
  interval : float;
  migrated_only : bool;
  t0 : float;  (* the first record's time; nan for an empty trace *)
  mutable t_end : float;
  (* bucket -> active user set.  The throughput statistics are float
     sums over [Hashtbl.iter] of this table, which walks the buckets in
     index order, newest binding first within one (not insertion order:
     keys 0..15 in a table created at 1024 iterate as 2 13 0 1 4 6 15 9
     7 8 11 12 14 10 5 3).  The sums depend on that order, so the key
     type, the hash and the initial size must not change. *)
  active_tbl : (int, Ids.User.Set.t ref) Hashtbl.t;
  (* (bucket, user) -> bytes; integer sums, so any order *)
  bytes_tbl : (int * int, int ref) Hashtbl.t;
  (* the last (bucket, user) marked active, so a run of records by one
     user in one interval looks the set up once *)
  mutable last_bucket : int;
  mutable last_user : int;
  (* the same for the last (bucket, user) whose bytes were added *)
  mutable bytes_bucket : int;
  mutable bytes_user : int;
  mutable bytes_cell : int ref;
}

let acc_create ?(migrated_only = false) ~interval ~t0 () =
  {
    interval;
    migrated_only;
    t0;
    t_end = neg_infinity;
    active_tbl = Hashtbl.create 1024;
    bytes_tbl = Hashtbl.create 4096;
    last_bucket = -1;
    last_user = -1;
    bytes_bucket = -1;
    bytes_user = -1;
    bytes_cell = ref 0;
  }

let bucket acc time = int_of_float ((time -. acc.t0) /. acc.interval)

let add_bytes acc b user n =
  let u = Ids.User.to_int user in
  if b <> acc.bytes_bucket || u <> acc.bytes_user then begin
    let key = (b, u) in
    let cell =
      match Hashtbl.find_opt acc.bytes_tbl key with
      | Some r -> r
      | None ->
        let r = ref 0 in
        Hashtbl.replace acc.bytes_tbl key r;
        r
    in
    acc.bytes_bucket <- b;
    acc.bytes_user <- u;
    acc.bytes_cell <- cell
  end;
  acc.bytes_cell := !(acc.bytes_cell) + n

let mark_active acc b user =
  let u = Ids.User.to_int user in
  if b <> acc.last_bucket || u <> acc.last_user then begin
    acc.last_bucket <- b;
    acc.last_user <- u;
    match Hashtbl.find_opt acc.active_tbl b with
    | Some s -> s := Ids.User.Set.add user !s
    | None -> Hashtbl.replace acc.active_tbl b (ref (Ids.User.Set.singleton user))
  end

let acc_record acc batch i =
  let time = B.time batch i in
  if time > acc.t_end then acc.t_end <- time;
  if (not acc.migrated_only) || B.Unsafe.migrated batch i then begin
    let b = bucket acc time and user = B.Unsafe.user_id batch i in
    mark_active acc b user;
    (* shared (pass-through) transfers carry their size directly: the
       length for shared reads/writes (payload column b), the byte count
       for directory reads (column a) *)
    let tag = B.Unsafe.tag batch i in
    if tag = B.tag_shared_read || tag = B.tag_shared_write then
      add_bytes acc b user (B.Unsafe.b batch i)
    else if tag = B.tag_dir_read then add_bytes acc b user (B.Unsafe.a batch i)
  end

let acc_boundary acc ~user ~migrated ~is_dir ~time run =
  if ((not acc.migrated_only) || migrated) && not is_dir then
    add_bytes acc (bucket acc time) user run

let empty_report interval =
  {
    interval;
    avg_active_users = 0.0;
    sd_active_users = 0.0;
    max_active_users = 0;
    avg_user_throughput = 0.0;
    sd_user_throughput = 0.0;
    peak_user_throughput = 0.0;
    peak_total_throughput = 0.0;
  }

let acc_finish acc =
  if Float.is_nan acc.t0 then empty_report acc.interval
  else begin
    let interval = acc.interval in
    let t_end = Float.max acc.t_end acc.t0 in
    let n_buckets = max 1 (1 + int_of_float ((t_end -. acc.t0) /. interval)) in
    (* active-user statistics over every interval, empty ones included *)
    let users_stats = Dfs_util.Stats.create () in
    let max_active = ref 0 in
    for b = 0 to n_buckets - 1 do
      let n =
        match Hashtbl.find_opt acc.active_tbl b with
        | Some s -> Ids.User.Set.cardinal !s
        | None -> 0
      in
      if n > !max_active then max_active := n;
      Dfs_util.Stats.add users_stats (float_of_int n)
    done;
    (* throughput per active user-interval *)
    let tput_stats = Dfs_util.Stats.create () in
    let peak_user = ref 0.0 in
    Hashtbl.iter
      (fun b s ->
        Ids.User.Set.iter
          (fun user ->
            let bytes =
              match Hashtbl.find_opt acc.bytes_tbl (b, Ids.User.to_int user) with
              | Some r -> !r
              | None -> 0
            in
            let kbs = float_of_int bytes /. 1024.0 /. interval in
            if kbs > !peak_user then peak_user := kbs;
            Dfs_util.Stats.add tput_stats kbs)
          !s)
      acc.active_tbl;
    (* peak total throughput over intervals *)
    let totals : (int, int ref) Hashtbl.t = Hashtbl.create 1024 in
    Hashtbl.iter
      (fun (b, _) r ->
        match Hashtbl.find_opt totals b with
        | Some acc -> acc := !acc + !r
        | None -> Hashtbl.replace totals b (ref !r))
      acc.bytes_tbl;
    let peak_total =
      Hashtbl.fold
        (fun _ r acc -> Float.max acc (float_of_int !r /. 1024.0 /. interval))
        totals 0.0
    in
    {
      interval;
      avg_active_users = Dfs_util.Stats.mean users_stats;
      sd_active_users = Dfs_util.Stats.stddev users_stats;
      max_active_users = !max_active;
      avg_user_throughput = Dfs_util.Stats.mean tput_stats;
      sd_user_throughput = Dfs_util.Stats.stddev tput_stats;
      peak_user_throughput = !peak_user;
      peak_total_throughput = peak_total;
    }
  end

let analyze ?migrated_only ~interval batch =
  let t0 = if B.length batch = 0 then Float.nan else B.time batch 0 in
  let acc = acc_create ?migrated_only ~interval ~t0 () in
  Session.sweep_seq (Seq.return batch) ~on_record:(acc_record acc)
    ~on_boundary:(acc_boundary acc) ~on_access:ignore;
  acc_finish acc

let pp ppf (r : report) =
  Format.fprintf ppf
    "@[<v>interval %.0fs: active users avg %.1f (sd %.1f) max %d;@ \
     throughput/user avg %.2f KB/s (sd %.2f) peak %.0f KB/s; peak total \
     %.0f KB/s@]"
    r.interval r.avg_active_users r.sd_active_users r.max_active_users
    r.avg_user_throughput r.sd_user_throughput r.peak_user_throughput
    r.peak_total_throughput
