(** Section 5.3's absolute paging-rate observations:

    - "during the middle of the work-day each workstation transfers only
      about one 4-Kbyte page every three to four seconds";
    - "40 Sprite workstations collectively generate only about 42
      Kbytes/second of paging traffic, or about four percent of the
      bandwidth of an Ethernet";
    - "it currently takes about 6 to 7 ms for a server to fetch a 4-Kbyte
      page from a client cache over an Ethernet ... already substantially
      less than typical disk access times (20 to 30 ms)". *)

type t = {
  paging_kb_per_sec_cluster : float;  (** cluster-wide paging rate, KB/s *)
  seconds_per_page_per_client : float;
      (** average seconds between 4-KByte page transfers per workstation *)
  ethernet_utilization_pct : float;
      (** paging traffic as a share of the Ethernet's bandwidth *)
  network_page_fetch_ms : float;
      (** modelled time to move one 4-KByte page over the network *)
  disk_access_ms : float;  (** modelled disk access time *)
  backing_share_pct : float;
      (** backing-file share of paging bytes (paper: ~50%) *)
}

val analyze : n_clients:int -> duration:float -> raw:Dfs_sim.Traffic.t -> t
(** [duration] is the simulated seconds the tap covers.  The page-fetch
    and disk-access times are those of {!Dfs_sim.Network.default_config}
    and {!Dfs_sim.Disk.default_config}. *)

val pp : Format.formatter -> t -> unit
