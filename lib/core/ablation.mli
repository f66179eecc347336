(** The design points the paper argues in prose, checked by ablation.

    Two footnotes read trace 1's finished run: Section 5.3's absolute
    paging rates and Table 7's server-side cache.  Four sweeps simulate
    fresh mini clusters (10 clients, 1 server, 1% of a day) whose size
    does not depend on the run: the delayed-write interval against
    writeback traffic, the cache-size ceiling against the read miss
    ratio, process migration against the 10-second burst rate (§4.1),
    and the share of server bytes a local paging disk would remove
    (§5.3).  The last section replays the run's access reconstruction
    through update-in-place and log-structured disk models (§6). *)

val render : Dataset.run -> string
(** All seven sections for trace 1's run, in the order above.
    Deterministic: every call simulates its mini clusters afresh, so
    two renders of the same run are byte-equal. *)
