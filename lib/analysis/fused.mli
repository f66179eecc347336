(** Fused single-pass analysis.

    One sweep over a record batch drives every fold together, instead of
    a scan each that rebuilds its own state: the per-record and
    per-access folds of {!Trace_stats}, {!File_size}, {!Open_time},
    {!Run_length}, {!Access_patterns} and {!Lifetime}; Table 2's
    {!Activity} in two halves (per record, and per run boundary of the
    session sweep) at 10-minute and 10-second intervals, all users and
    migrated only; Table 10's {!Consistency_stats}; Table 11's
    {!Dfs_consistency.Polling} simulation at 60 s and 3 s; and the
    collection of Table 12's write-shared files.  Per-access accumulators
    are fed at close time — the same order as {!Session.of_batch} returns
    accesses — so every result is identical to running the standalone
    analyses.  No access is kept once its folds have seen it.

    Table 12 then takes one more, filtered pass over the same stream:
    {!Dfs_consistency.Shared_events} extracts the write-shared files'
    events (a file's events before its first shared record count, so
    they cannot be extracted in the first pass without holding every
    open of every file), and Sprite, modified Sprite and the token
    scheme run over them once. *)

type overhead = {
  demand_bytes : int;
      (** {!Dfs_consistency.Shared_events.total_requested} of the
          write-shared files' streams *)
  demand_requests : int;  (** {!Dfs_consistency.Shared_events.total_requests} *)
  sprite : Dfs_consistency.Overhead.result;  (** {!Dfs_consistency.Sprite.simulate} *)
  sprite_modified : Dfs_consistency.Overhead.result;
      (** {!Dfs_consistency.Sprite_modified.simulate} *)
  token : Dfs_consistency.Overhead.result;  (** {!Dfs_consistency.Token.simulate} *)
}
(** Table 12: the three consistency mechanisms over the trace's
    write-shared files, and the application demand they are charged
    against. *)

type t = {
  stats : Trace_stats.t;
  file_size : File_size.t;
  open_time : Open_time.t;
  run_length : Run_length.t;
  access_patterns : Access_patterns.t;
  lifetime : Lifetime.t;
  activity_10min : Activity.report;  (** {!Activity.analyze} [~interval:600.] *)
  activity_10min_migrated : Activity.report;  (** ... [~migrated_only:true] *)
  activity_10s : Activity.report;  (** [~interval:10.] *)
  activity_10s_migrated : Activity.report;
  consistency : Consistency_stats.t;
  polling_60s : Dfs_consistency.Polling.report;
      (** {!Dfs_consistency.Polling.simulate} [~interval:60.] *)
  polling_3s : Dfs_consistency.Polling.report;  (** [~interval:3.] *)
  overhead : overhead;
}

val analyze : Dfs_trace.Record_batch.t -> t

val analyze_seq : Dfs_trace.Record_batch.t Seq.t -> t
(** {!analyze} over a chunked trace stream; at most one chunk is forced
    at a time (plus the accumulators), so peak memory is bounded by the
    chunk size rather than the trace length.  The stream must be
    replayable (e.g. {!Dfs_trace.Sink.to_seq}): Table 12's pass reads it
    again when some file was write-shared. *)

val analyze_chunks : ?pool:Dfs_util.Pool.t -> Dfs_trace.Sink.chunks -> t
(** {!analyze_seq} over a finished sink's chunks.  [pool] is ignored and
    nothing in the library passes it; it stays because perfbench calls
    [analyze_chunks ~pool].  Once the next change to the benchmark stops
    passing it, the argument goes. *)
