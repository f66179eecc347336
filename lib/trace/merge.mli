(** Merging the per-server traces into one time-ordered stream.

    Mirrors Section 3 of the paper: "the traces included enough timing
    information to merge the traces from the different servers into a
    single ordered list of records", after removing the records caused by
    writing the trace files themselves and by the nightly backup. *)

val merge_iter :
  ?on_corruption:Corruption.policy ->
  Sink.chunks list ->
  emit:(Record_batch.t -> int -> unit) ->
  unit
(** Streaming k-way merge over chunked per-server traces.  Each source
    must be time-sorted; [emit] receives [(batch, index)] cursors in
    global time order (ties broken by server id, as in
    {!Record.compare_time}).
    Only one chunk per source is resident at a time.  [on_corruption]
    governs spilled-chunk loads (see {!Sink.load_chunk}). *)

val merge_chunks :
  ?on_corruption:Corruption.policy ->
  ?chunk_records:int ->
  ?spill:Sink.spill ->
  ?scrub:Ids.User.Set.t ->
  Sink.chunks list ->
  Sink.chunks
(** {!merge_iter} writing through a fresh {!Sink}: merge the sources into
    one chunked time-ordered trace, dropping records whose user is in
    [scrub] (infrastructure users) along the way.  Peak memory is one
    open output chunk plus one loaded chunk per source, regardless of
    trace length. *)
