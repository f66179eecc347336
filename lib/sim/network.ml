type config = {
  bandwidth : float;
  rpc_latency : float;
  remote_latency : float;
}

let default_config =
  { bandwidth = 1.25e6; rpc_latency = 0.002; remote_latency = 0.05 }

(* One RPC is one latency observation, so the accumulator's count is
   the RPC count. *)
type t = { cfg : config; latency : Dfs_obs.Metrics.Acc.t; mutable bytes : int }

let create ?(config = default_config) () =
  { cfg = config; latency = Dfs_obs.Metrics.Acc.create (); bytes = 0 }

let config t = t.cfg

let rpc t ~kind ~bytes =
  if bytes < 0 then
    invalid_arg (Printf.sprintf "Network.rpc: negative bytes (%d)" bytes);
  t.bytes <- t.bytes + bytes;
  let d = t.cfg.rpc_latency +. (float_of_int bytes /. t.cfg.bandwidth) in
  Dfs_obs.Metrics.Acc.observe t.latency d;
  if Dfs_obs.Profiler.admit () then
    Dfs_obs.Profiler.emit ~cat:"rpc" ~name:kind ~t0:(Dfs_obs.Profiler.now ()) ~dur:d
      [ ("bytes", Dfs_obs.Json.Int bytes) ];
  d

let total_rpcs t = Dfs_obs.Metrics.Acc.count t.latency

let total_bytes t = t.bytes

let latency t = t.latency

let utilization t ~elapsed =
  if elapsed <= 0.0 then 0.0
  else float_of_int t.bytes /. (t.cfg.bandwidth *. elapsed)
