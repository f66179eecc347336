type config = {
  bandwidth : float;
  rpc_latency : float;
  remote_latency : float;
}

let default_config =
  { bandwidth = 1.25e6; rpc_latency = 0.002; remote_latency = 0.05 }

let m_rpcs = Dfs_obs.Metrics.counter "sim.net.rpcs"

let m_bytes = Dfs_obs.Metrics.counter "sim.net.bytes"

let m_latency = Dfs_obs.Metrics.histogram "sim.net.rpc_latency_s"

type t = { cfg : config; mutable rpcs : int; mutable bytes : int }

let create ?(config = default_config) () =
  { cfg = config; rpcs = 0; bytes = 0 }

let config t = t.cfg

let rpc t ~kind ~bytes =
  if bytes < 0 then
    invalid_arg (Printf.sprintf "Network.rpc: negative bytes (%d)" bytes);
  t.rpcs <- t.rpcs + 1;
  t.bytes <- t.bytes + bytes;
  let d = t.cfg.rpc_latency +. (float_of_int bytes /. t.cfg.bandwidth) in
  Dfs_obs.Metrics.incr m_rpcs;
  Dfs_obs.Metrics.add m_bytes bytes;
  Dfs_obs.Metrics.observe m_latency d;
  if Dfs_obs.Profiler.admit () then
    Dfs_obs.Profiler.emit ~cat:"rpc" ~name:kind ~t0:(Dfs_obs.Profiler.now ()) ~dur:d
      [ ("bytes", Dfs_obs.Json.Int bytes) ];
  d

let total_rpcs t = t.rpcs

let total_bytes t = t.bytes

let utilization t ~elapsed =
  if elapsed <= 0.0 then 0.0
  else float_of_int t.bytes /. (t.cfg.bandwidth *. elapsed)
