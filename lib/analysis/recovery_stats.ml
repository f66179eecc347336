type row = {
  run_name : string;
  crashes : int;
  reboots : int;
  downtime_s : float;
  lost_kb : float;
  lost_per_crash_kb : float;
  offline_queued_kb : float;
  replayed_kb : float;
  recovery_rpcs : int;
  rpc_retries : int;
  rpc_stall_s : float;
  disk_errors : int;
  partitions : int;
}

type t = { rows : row list; total : row }

let kb bytes = float_of_int bytes /. 1024.0

let row_of_injector name inj =
  let module I = Dfs_fault.Injector in
  let s = I.stats inj and crashes = I.crashes inj and lost_bytes = I.lost_bytes inj in
  {
    run_name = name;
    crashes;
    reboots = s.reboots;
    downtime_s = I.downtime_s inj;
    lost_kb = kb lost_bytes;
    lost_per_crash_kb =
      (if crashes = 0 then 0.0 else kb lost_bytes /. float_of_int crashes);
    offline_queued_kb = kb s.offline_queued_bytes;
    replayed_kb = kb s.replayed_bytes;
    recovery_rpcs = s.recovery_rpcs;
    rpc_retries = s.rpc_retries;
    rpc_stall_s = I.rpc_stall_s inj;
    disk_errors = s.disk_errors;
    partitions = s.partitions;
  }

let analyze named =
  let rows = List.map (fun (name, inj) -> row_of_injector name inj) named in
  let total =
    List.fold_left
      (fun acc r ->
        {
          acc with
          crashes = acc.crashes + r.crashes;
          reboots = acc.reboots + r.reboots;
          downtime_s = acc.downtime_s +. r.downtime_s;
          lost_kb = acc.lost_kb +. r.lost_kb;
          offline_queued_kb = acc.offline_queued_kb +. r.offline_queued_kb;
          replayed_kb = acc.replayed_kb +. r.replayed_kb;
          recovery_rpcs = acc.recovery_rpcs + r.recovery_rpcs;
          rpc_retries = acc.rpc_retries + r.rpc_retries;
          rpc_stall_s = acc.rpc_stall_s +. r.rpc_stall_s;
          disk_errors = acc.disk_errors + r.disk_errors;
          partitions = acc.partitions + r.partitions;
        })
      {
        run_name = "total";
        crashes = 0;
        reboots = 0;
        downtime_s = 0.0;
        lost_kb = 0.0;
        lost_per_crash_kb = 0.0;
        offline_queued_kb = 0.0;
        replayed_kb = 0.0;
        recovery_rpcs = 0;
        rpc_retries = 0;
        rpc_stall_s = 0.0;
        disk_errors = 0;
        partitions = 0;
      }
      rows
  in
  let total =
    {
      total with
      lost_per_crash_kb =
        (if total.crashes = 0 then 0.0
         else total.lost_kb /. float_of_int total.crashes);
    }
  in
  { rows; total }

let pp_row ppf r =
  Format.fprintf ppf "%-8s %7d %9.0f %10.1f %11.1f %10.1f %8d %8d %9.1f %6d %5d"
    r.run_name r.crashes r.downtime_s r.lost_kb r.lost_per_crash_kb
    r.replayed_kb r.recovery_rpcs r.rpc_retries r.rpc_stall_s r.disk_errors
    r.partitions

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf
    "%-8s %7s %9s %10s %11s %10s %8s %8s %9s %6s %5s@ " "run" "crashes"
    "down(s)" "lost(KB)" "lost/crash" "replay(KB)" "recovRPC" "retries"
    "stall(s)" "diskE" "parts";
  List.iter (fun r -> Format.fprintf ppf "%a@ " pp_row r) t.rows;
  Format.fprintf ppf "%a@]" pp_row t.total
