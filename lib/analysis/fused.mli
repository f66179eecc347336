(** Fused single-pass analysis.

    One sweep over a record batch drives nine folds together, instead of
    a scan each that rebuilds its own state: the per-record and
    per-access folds of {!Trace_stats}, {!File_size}, {!Open_time},
    {!Run_length}, {!Access_patterns} and {!Lifetime}; Table 2's
    {!Activity} in two halves (per record, and per run boundary of the
    session sweep) at 10-minute and 10-second intervals, all users and
    migrated only; Table 10's {!Consistency_stats}; and Table 11's
    {!Dfs_consistency.Polling} simulation at 60 s and 3 s.  Per-access
    accumulators are fed at close time — the same order as
    {!Session.of_batch} returns accesses — so every result is identical
    to running the standalone analyses.  [accesses] is that
    reconstruction, shared so callers need not recompute it. *)

type t = {
  stats : Trace_stats.t;
  file_size : File_size.t;
  open_time : Open_time.t;
  run_length : Run_length.t;
  access_patterns : Access_patterns.t;
  lifetime : Lifetime.t;
  accesses : Session.access list;
  activity_10min : Activity.report;  (** {!Activity.analyze} [~interval:600.] *)
  activity_10min_migrated : Activity.report;  (** ... [~migrated_only:true] *)
  activity_10s : Activity.report;  (** [~interval:10.] *)
  activity_10s_migrated : Activity.report;
  consistency : Consistency_stats.t;
  polling_60s : Dfs_consistency.Polling.report;
      (** {!Dfs_consistency.Polling.simulate} [~interval:60.] *)
  polling_3s : Dfs_consistency.Polling.report;  (** [~interval:3.] *)
}

val analyze : Dfs_trace.Record_batch.t -> t

val analyze_seq : Dfs_trace.Record_batch.t Seq.t -> t
(** {!analyze} over a chunked trace stream; at most one chunk is forced
    at a time (plus the accumulators), so peak memory is bounded by the
    chunk size rather than the trace length. *)

val analyze_chunks : ?pool:Dfs_util.Pool.t -> Dfs_trace.Sink.chunks -> t
(** {!analyze_seq} over a finished sink, sharded across the pool's
    domains.  Each of [Pool.jobs pool] shards replays the chunk stream
    and processes only the records whose client id falls in the shard;
    handles are client-keyed, so shards reconstruct disjoint session
    sets.  Per-record accumulators and activity bytes merge
    commutatively and the order-sensitive access/death streams are k-way
    merged by global record index and replayed.  The folds that keep
    per-file state across clients (activity's per-record half,
    consistency actions, polling) run on shard 0's walk, which sees every
    record in order.  So the result is {e bit-identical} to
    {!analyze_seq} for any pool size.  Runs sequentially (zero overhead)
    when the pool is absent, has one job, or the caller is already
    inside a pool task, where {!Dfs_util.Pool.map} would reject nested
    use. *)
