module Traffic = Dfs_sim.Traffic

type t = {
  paging_kb_per_sec_cluster : float;
  seconds_per_page_per_client : float;
  ethernet_utilization_pct : float;
  network_page_fetch_ms : float;
  disk_access_ms : float;
  backing_share_pct : float;
}

let page = float_of_int Dfs_util.Units.block_size

let network = Dfs_sim.Network.default_config

let disk = Dfs_sim.Disk.default_config

let analyze ~n_clients ~duration ~raw =
  if n_clients <= 0 then
    invalid_arg
      (Printf.sprintf "Paging_stats.analyze: n_clients = %d must be positive"
         n_clients);
  let cached =
    Traffic.read_bytes raw Traffic.Paging_cached
    + Traffic.write_bytes raw Traffic.Paging_cached
  in
  let backing =
    Traffic.read_bytes raw Traffic.Paging_backing
    + Traffic.write_bytes raw Traffic.Paging_backing
  in
  let paging = float_of_int (cached + backing) in
  let rate = if duration > 0.0 then paging /. duration else 0.0 in
  let pages_per_sec_per_client = rate /. page /. float_of_int n_clients in
  {
    paging_kb_per_sec_cluster = rate /. 1024.0;
    seconds_per_page_per_client =
      (if pages_per_sec_per_client > 0.0 then 1.0 /. pages_per_sec_per_client
       else infinity);
    ethernet_utilization_pct = 100.0 *. rate /. network.bandwidth;
    network_page_fetch_ms =
      1000.0 *. (network.rpc_latency +. (page /. network.bandwidth));
    disk_access_ms = 1000.0 *. (disk.access_time +. (page /. disk.transfer_rate));
    backing_share_pct =
      (if paging > 0.0 then 100.0 *. float_of_int backing /. paging else 0.0);
  }

let pp ppf t =
  Format.fprintf ppf
    "@[<v>cluster paging: %.1f KB/s (%.1f%% of the Ethernet);@ one 4-KB \
     page every %.1f s per workstation;@ network page fetch %.1f ms vs \
     disk access %.1f ms;@ backing files carry %.0f%% of paging bytes@]"
    t.paging_kb_per_sec_cluster t.ethernet_utilization_pct
    t.seconds_per_page_per_client t.network_page_fetch_ms t.disk_access_ms
    t.backing_share_pct
