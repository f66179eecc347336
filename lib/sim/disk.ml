type config = { access_time : float; transfer_rate : float }

let default_config = { access_time = 0.025; transfer_rate = 1.5e6 }

type t = {
  cfg : config;
  faults : Dfs_fault.Injector.t option;
  service_times : Dfs_obs.Metrics.Acc.t;
  mutable reads : int;
  mutable writes : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
}

let create ?(config = default_config) ?faults
    ?(service_times = Dfs_obs.Metrics.Acc.create ()) () =
  {
    cfg = config;
    faults;
    service_times;
    reads = 0;
    writes = 0;
    bytes_read = 0;
    bytes_written = 0;
  }

(* Observes and traces one I/O taking [d] seconds.  Returning [d] itself
   keeps the float boxed once per I/O. *)
let note t op bytes d =
  Dfs_obs.Metrics.Acc.observe t.service_times d;
  if Dfs_obs.Profiler.admit () then
    Dfs_obs.Profiler.emit ~cat:"disk" ~name:op ~t0:(Dfs_obs.Profiler.now ()) ~dur:d
      [ ("bytes", Dfs_obs.Json.Int bytes) ];
  d

let service t op bytes =
  let penalty =
    match t.faults with
    | None -> 0.0
    | Some inj -> Dfs_fault.Injector.disk_penalty inj
  in
  note t op bytes (t.cfg.access_time +. (float_of_int bytes /. t.cfg.transfer_rate) +. penalty)

let read t ~bytes =
  assert (bytes >= 0);
  t.reads <- t.reads + 1;
  t.bytes_read <- t.bytes_read + bytes;
  service t "read" bytes

let write t ~bytes =
  assert (bytes >= 0);
  t.writes <- t.writes + 1;
  t.bytes_written <- t.bytes_written + bytes;
  service t "write" bytes

let reads t = t.reads

let writes t = t.writes

let bytes_read t = t.bytes_read

let bytes_written t = t.bytes_written
