(** Row parser for SNIA IOTTA / MSR-Cambridge style block-trace CSV.

    The accepted shape is the MSR Cambridge enterprise trace layout:

    {v Timestamp,Hostname,DiskNumber,Type,Offset,Size[,ResponseTime] v}

    - [Timestamp]: a non-negative finite number.  Either plain seconds
      or a Windows FILETIME (100 ns ticks since 1601) — the importer
      detects the unit from the magnitude and rebases to seconds from
      the first event, so rows keep their raw value here.
    - [Hostname]: any non-empty string; becomes a client/user identity.
    - [DiskNumber]: a non-negative integer; [(Hostname, DiskNumber)]
      becomes a file identity.
    - [Type]: ["Read"]/["Write"] (or ["R"]/["W"]), case-insensitive.
    - [Offset], [Size]: non-negative integers, bytes.
    - [ResponseTime]: optional and ignored (the simulator computes its
      own latencies).

    Parsing is total and one-line-diagnostic: a malformed field yields
    [Error reason] with the offending value quoted, never an exception.
    Out-of-domain values (nan/inf timestamps, negative sizes or
    offsets) are rejected here, before they can reach [Record.t]. *)

type op = Read | Write

type row = {
  time : float;  (** raw timestamp as written (seconds or FILETIME) *)
  host : string;
  disk : int;
  op : op;
  offset : int;  (** bytes *)
  size : int;  (** bytes *)
}

val is_header : string -> bool
(** True for a column-name header line (first cell ["Timestamp"],
    case-insensitive); such lines are skipped, not errors. *)

val parse_row : string -> (row, string) result
(** Parse one data row.  The error is a single line naming the bad
    field and its value. *)
