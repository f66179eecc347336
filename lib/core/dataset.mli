(** A generated dataset: the simulated counterparts of the paper's eight
    24-hour traces plus the finished clusters (whose caches, counters and
    traffic taps the cache analyses read).

    Generating all eight full-length traces takes a few minutes; [scale]
    shrinks each trace's duration (0.1 ~ 2.4 busy daytime hours), which
    preserves rates and distributions while shrinking absolute counts.
    The presets are simulated concurrently on a {!Dfs_util.Pool}; because
    every preset seeds its own RNG and runs in its own cluster, the
    result is byte-identical whatever the job count. *)

type memo
(** Per-run cache of derived analysis results; see {!fused}. *)

type run = {
  preset : Dfs_workload.Presets.preset;
  cluster : Dfs_sim.Cluster.t;  (** finished run *)
  trace : Dfs_trace.Sink.chunks;  (** merged, scrubbed, time-ordered *)
  jobs : int;
      (** the worker count the dataset was built with.  Nothing in the
          library reads it; it stays because perfbench reads [r.jobs],
          until the next change to the benchmark drops that read. *)
  memo : memo;
}

type t = {
  scale : float option;
      (** the presets' duration as a fraction of 24 hours; [None] for a
          replayed trace ({!of_replay}), which covers its own span *)
  runs : run list;
}

val generate :
  ?scale:float ->
  ?traces:int list ->
  ?jobs:int ->
  ?faults:Dfs_fault.Profile.t ->
  ?chunk_records:int ->
  ?spill_dir:string ->
  unit ->
  t
(** [traces] selects which of the eight presets to run (default: all).
    [scale] defaults to {!default_scale}.  [jobs] caps the domains used
    (default: {!Dfs_util.Pool.default_jobs}, i.e. [DFS_JOBS] or the
    machine's core count).  [faults] enables fault injection on every
    preset (default: none).  [chunk_records] bounds the records per trace
    chunk (default: {!Dfs_trace.Sink.default_chunk_records}); [spill_dir]
    (default: none, chunks stay in memory) makes sealed chunks spill to
    disk as columnar segments, so peak memory no longer grows with trace
    length.
    Progress is reported through {!Dfs_obs.Log} (so [DFS_LOG=quiet]
    silences it), and per-preset wall times land in the default metrics
    registry as [phase.sim.<name>.wall_s] gauges. *)

val of_replay :
  ?jobs:int -> string -> (t * Dfs_workload.Replay.stats, string) result
(** [of_replay path] reads a canonical trace (text or columnar, every
    record validated, damage fatal) with
    {!Dfs_trace.Reader.batch_of_file}, replays the batch through a live
    cluster ({!Dfs_workload.Replay}) and packages the finished cluster
    as a single-run dataset on which all experiments — Tables 1–12,
    figures, facts — run unchanged.  [jobs] only fills the run's
    [jobs] field (default: {!Dfs_util.Pool.default_jobs}), which nothing
    in the library reads; it stays because perfbench passes [~jobs:1].
    Errors are one-line diagnostics (a path that cannot be read, an
    invalid trace, id ranges beyond the replay ceilings). *)

val default_scale : float
(** 0.05 — enough for stable shapes while keeping the whole suite
    fast. *)

val trace_seq : run -> Dfs_trace.Record_batch.t Seq.t
(** The run's merged trace as a replayable chunk stream (at most one
    chunk forced at a time): [Dfs_trace.Sink.to_seq run.trace].
    Nothing in the library reads it since Table 12 moved into the fused
    pass; it stays because perfbench reads every segment through it,
    until the next change to the benchmark calls [Sink.to_seq]. *)

val fused : run -> Dfs_analysis.Fused.t
(** The run's fused analysis (trace stats, size/open-time/run-length
    distributions, access patterns, lifetimes, Tables 2, 10 and 11, and
    Table 12's consistency overheads), computed on first use by one
    sequential sweep and Table 12's filtered pass
    ({!Dfs_analysis.Fused.analyze_chunks}) and shared by every
    experiment and claim on this run.  Safe to call from several
    domains: nothing writes to the result, its CDFs included, once the
    pass ends, so queries on it need no lock. *)

val per_trace : t -> (run -> 'a) -> 'a list
(** One result per run, in run order. *)

val mean : float list -> float
(** The mean of per-trace values; nan for none. *)

val all_cache_stats : t -> Dfs_cache.Block_cache.stats list
(** Every client cache's statistics, run by run (Tables 6, 8 and 9). *)

val raw_traffic : t -> Dfs_sim.Traffic.t
(** All runs' raw client traffic, summed in run order (Table 5). *)

val server_traffic : t -> Dfs_sim.Traffic.t
(** All runs' server traffic after the client caches, summed in run
    order (Table 7). *)
