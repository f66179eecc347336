(** Server disk-layout models for the paper's closing observation
    (Section 6): "if read hit ratios continue to improve, then writes will
    eventually dominate file system performance and new approaches, such
    as ... log-structured file systems, will become attractive"
    (Rosenblum & Ousterhout, reference 15).

    Two layouts service the same stream of server-level block operations:

    - {!In_place}: a classic update-in-place layout (FFS-flavoured); every
      block read or write pays a seek unless it lands right after the
      previous operation on the same file region;
    - {!Log}: a log-structured layout; writes accumulate in a segment
      buffer and go to disk in whole-segment appends (one seek per
      segment), at the cost of cleaning overhead proportional to segment
      utilization, and reads of cold data still seek.

    The models charge time only — seeks and transfers — which is all the
    crossover argument needs. *)

type op =
  | Read of { file : int; block : int }
  | Write of { file : int; block : int }

type params = {
  seek_time : float;  (** seconds per repositioning, ~0.02 in 1991 *)
  transfer_time : float;  (** seconds per 4-KByte block, ~0.003 *)
  segment_blocks : int;  (** log segment size in blocks *)
  cleaning_overhead : float;
      (** extra fraction of segment-write cost paid to the cleaner
          (0.3 = 30% of written segments must be cleaned/copied) *)
}

val default_params : params

type result = {
  ops : int;
  reads : int;
  writes : int;
  read_time : float;
  write_time : float;
  total_time : float;
}

val in_place : op list -> result
(** Service the stream with update-in-place allocation under
    {!default_params}. *)

val log_structured : ?params:params -> op list -> result
(** Service the stream with a log: writes are batched into segments. *)

val workload_of_accesses :
  ?read_miss_ratio:float ->
  ?metadata:bool ->
  seed:int ->
  Dfs_analysis.Session.access list ->
  op list
(** Derive a server-level block-operation stream from per-access totals:
    every written block becomes a server write (Sprite writes ~90% of new
    bytes through), each read block becomes a server read with probability
    [read_miss_ratio] (the client caches absorb the rest), and — unless
    [metadata] is false — every write-bearing access adds the inode and
    directory updates an FFS-style file system scatters across the disk,
    which is precisely the traffic a log batches away.  Deterministic for
    a given [seed]. *)

val crossover_table :
  Dfs_analysis.Session.access list ->
  seed:int ->
  (float * float * float) list
(** For a sweep of client read-miss ratios, the (miss_ratio,
    in_place_time, log_time) triples — the paper's "writes will dominate"
    argument in one table. *)
