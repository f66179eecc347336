(** Table 10: frequency of cache-consistency actions, replayed from the
    trace (the same open-table logic the Sprite server runs live).

    - {e Concurrent write-sharing}: an open that results in the file being
      open on more than one client with at least one of them writing.
    - {e Server recall}: an open for which the file's most recent data was
      last written by a different client, so the server must retrieve it.
      Like the paper's figure this is an upper bound — the server does not
      know whether the delayed-write daemon already flushed the data. *)

type t = {
  file_opens : int;
  sharing_opens : int;
  recall_opens : int;
}

val analyze : Dfs_trace.Record_batch.t -> t

(** {1 Accumulator}

    {!analyze} as a per-record fold, which {!Fused} drives.  The open
    table and last-writer state are per file across clients, so it must
    see every record of the trace in order. *)

type acc

val acc_create : unit -> acc

val acc_record : acc -> Dfs_trace.Record_batch.t -> int -> unit

val acc_finish : acc -> t

val sharing_pct : t -> float

val recall_pct : t -> float
