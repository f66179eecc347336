type config = { access_time : float; transfer_rate : float }

let default_config = { access_time = 0.025; transfer_rate = 1.5e6 }

let m_reads = Dfs_obs.Metrics.counter "sim.disk.reads"

let m_writes = Dfs_obs.Metrics.counter "sim.disk.writes"

let m_bytes_read = Dfs_obs.Metrics.counter "sim.disk.bytes_read"

let m_bytes_written = Dfs_obs.Metrics.counter "sim.disk.bytes_written"

let m_service = Dfs_obs.Metrics.histogram "sim.disk.service_s"

let note op bytes d =
  Dfs_obs.Metrics.observe m_service d;
  if Dfs_obs.Profiler.admit () then
    Dfs_obs.Profiler.emit ~cat:"disk" ~name:op ~t0:(Dfs_obs.Profiler.now ()) ~dur:d
      [ ("bytes", Dfs_obs.Json.Int bytes) ]

type t = {
  cfg : config;
  faults : Dfs_fault.Injector.t option;
  mutable reads : int;
  mutable writes : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
}

let create ?(config = default_config) ?faults () =
  {
    cfg = config;
    faults;
    reads = 0;
    writes = 0;
    bytes_read = 0;
    bytes_written = 0;
  }

let service t bytes =
  let penalty =
    match t.faults with
    | None -> 0.0
    | Some inj -> Dfs_fault.Injector.disk_penalty inj
  in
  t.cfg.access_time +. (float_of_int bytes /. t.cfg.transfer_rate) +. penalty

let read t ~bytes =
  assert (bytes >= 0);
  t.reads <- t.reads + 1;
  t.bytes_read <- t.bytes_read + bytes;
  Dfs_obs.Metrics.incr m_reads;
  Dfs_obs.Metrics.add m_bytes_read bytes;
  let d = service t bytes in
  note "read" bytes d;
  d

let write t ~bytes =
  assert (bytes >= 0);
  t.writes <- t.writes + 1;
  t.bytes_written <- t.bytes_written + bytes;
  Dfs_obs.Metrics.incr m_writes;
  Dfs_obs.Metrics.add m_bytes_written bytes;
  let d = service t bytes in
  note "write" bytes d;
  d

let reads t = t.reads

let writes t = t.writes

let bytes_read t = t.bytes_read

let bytes_written t = t.bytes_written
