(** Trace replay: drive an imported (or any canonical) record stream
    through a live simulated cluster.

    Analyses split in two: the trace-only ones (Tables 1–3, 10–12, the
    figures, the fused pass) could read an imported trace directly, but
    the cache and traffic analyses (Tables 4–9) read the finished
    cluster — client block caches, kernel counters, traffic taps.
    Replay therefore re-executes the foreign workload as real client
    operations: the cluster's servers log their own trace while its
    caches, counters and consistency machinery run exactly as they do
    under the synthetic drivers, so {e every} experiment runs unchanged
    on foreign data.

    Mechanics: the cluster is sized from the trace's id ranges; every
    file is pre-created on the server the trace assigns it; records are
    partitioned into per-[(client, pid)] streams, each driven by one
    engine process that sleeps to each record's timestamp (absolute
    anchoring — operation latencies never accumulate as drift) and
    issues the corresponding {!Dfs_sim.Client} call.  A session's reads
    and writes are performed at close time from its byte totals,
    mirroring the paper's own semantics (positions at open/seek/close,
    totals at close).  Execution uses the single-partition windowed
    executor, so [--sim-shards] and [DFS_JOBS] leave the replayed trace
    byte-identical.

    Replay is tolerant by design — a hostile trace must not crash it:
    a close without an open synthesizes the open; operations on
    deleted/unknown files are skipped and counted.  The
    [replay.applied] / [replay.skipped] / [replay.synthesized_opens]
    counters expose the outcome ([replay.skipped] is asserted zero in
    CI for the committed sample). *)

type stats = {
  records : int;  (** input records *)
  applied : int;  (** records executed as client operations *)
  skipped : int;  (** records dropped (unknown file, no fd, …) *)
  synthesized_opens : int;  (** opens fabricated for orphan closes *)
  clients : int;
  servers : int;
  files : int;
  horizon : float;  (** simulated seconds the cluster ran *)
}

val max_clients : int
(** Hard ceiling on the client count a trace may demand (4096): a
    hostile trace with one huge client id must fail with a one-line
    error, not exhaust memory. *)

val max_servers : int
(** Ceiling on the server count (64). *)

val max_files : int
(** Ceiling on distinct file ids (1_000_000). *)

val run :
  ?seed:int ->
  ?config:Dfs_sim.Cluster.config ->
  Dfs_trace.Record_batch.t ->
  (Dfs_sim.Cluster.t * stats, string) result
(** Replay a time-sorted trace, as {!Dfs_trace.Reader} returns it (every
    record valid; each is boxed only when its stream reaches it).
    [config] overrides the
    cluster template (its [n_clients]/[n_servers] are still raised to
    cover the trace's id ranges; infrastructure daemons are disabled so
    the replayed trace contains exactly the foreign workload).  Returns
    the finished cluster — read {!Dfs_sim.Cluster.merged_chunks},
    counters and caches from it — or a one-line error for an empty
    trace, an unsorted trace, or id ranges beyond the ceilings. *)
