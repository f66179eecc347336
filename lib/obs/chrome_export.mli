(** Export recorded spans as Chrome trace-event JSON.

    Produces the JSON-object format consumed by Perfetto
    (ui.perfetto.dev) and [chrome://tracing]: a top-level object with a
    ["traceEvents"] array of complete-duration (["ph":"X"]) events plus
    metadata events naming processes and threads.  Both clocks share one
    event builder:

    - {b pid 1 — wall clock}: {!Profiler} wall spans, one thread (track)
      per OCaml domain, timestamps in real microseconds since
      [Profiler.enable].  GC deltas ride along in [args].
    - {b pid 2, 3, ... — sim time}: one process per simulation, in label
      order, each with one track per span category (in sorted order);
      1 simulated second = 1 timeline second, and the event's attributes
      are its [args].

    Sim processes appear for every simulation recorded since
    [Profiler.enable_sim], so a file holding only them is a pure
    function of the simulations, whatever the domain count.  Either side
    may be empty; the output is always a valid trace. *)

val write : ?clock:Profiler.clock -> out_channel -> unit
(** Write the trace, streaming one event at a time: every recorded span,
    or only those of [clock]. *)
