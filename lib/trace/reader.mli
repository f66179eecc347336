(** Trace parsing.

    Both entry points sniff the header and dispatch to the text codec
    ({!Codec}) or the columnar segment layout ({!Segment}), so callers
    never name the format on the read side.  Every reader returns one
    struct-of-arrays {!Record_batch.t}; columnar files are served
    straight off [mmap]'d columns on little-endian hosts unless
    [DFS_MMAP] is [0].  A file
    in neither format is read as text and fails on its header, whose
    quote is cut to a bounded prefix.

    Every record is validated as {!Record.validate} defines it: text
    lines as they are decoded, columnar batches by a scan of their
    columns that boxes nothing.  A checksum proves a columnar file
    intact, not that one of our writers produced it, so foreign or
    hand-made segments get the same domain checks as text.

    Both entry points take an [?on_corruption] policy (default
    {!Corruption.Fail}).  Under [Fail] the first damage is a one-line
    [Error]: ["line N: ..."] (text), ["byte N: ..."] (columnar
    structure or checksums) or ["record N: ..."] (a columnar record out
    of domain).  Under [Salvage] a text trace keeps its whole lines up
    to the first bad one, a columnar trace keeps its valid segment
    prefix and drops every out-of-domain record, and the incident is
    recorded via {!Corruption.note} instead of failing. *)

val batch_of_string :
  ?on_corruption:Corruption.policy ->
  ?source:string ->
  string ->
  (Record_batch.t, string) result
(** Parse a whole trace held in memory.  [?source] labels the salvage
    diagnostics. *)

val batch_of_file :
  ?on_corruption:Corruption.policy ->
  string ->
  (Record_batch.t, string) result
(** Read a trace file; text is parsed line by line from the channel. *)
