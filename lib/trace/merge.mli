(** Merging the per-server traces into one time-ordered stream.

    Mirrors Section 3 of the paper: "the traces included enough timing
    information to merge the traces from the different servers into a
    single ordered list of records", after removing the records caused by
    writing the trace files themselves and by the nightly backup. *)

val merge_chunks :
  ?chunk_records:int ->
  ?spill:Sink.spill ->
  ?scrub:Ids.User.Set.t ->
  Sink.chunks list ->
  Sink.chunks
(** Streaming k-way merge of chunked per-server traces through a fresh
    {!Sink}: each source must be time-sorted, and records come out in
    global time order (ties broken by server id, as in
    {!Record.compare_time}) as one chunked trace, dropping records whose
    user is in [scrub] (infrastructure users) along the way.  Peak
    memory is one open output chunk plus one loaded chunk per source,
    regardless of trace length.  A damaged spilled chunk raises (see
    {!Sink.load_chunk}). *)
