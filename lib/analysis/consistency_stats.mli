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

    {!analyze} as a per-record fold, which {!Fused} drives.  One record
    per file, in an int-keyed table ({!Dfs_util.Itbl}), holds the file's
    open handles (client, pid and write mode, newest first, so a close
    takes the newest handle with its client and pid, last in first out
    per handle) and the client that last wrote it: a non-directory open
    or a close looks one key up.  An open is write-shared when, with it,
    a second client holds the file open and some handle is open for
    writing.  The state is per file across clients, so the fold must see
    every record of the trace in order. *)

type acc

val acc_create : unit -> acc

val acc_record : acc -> Dfs_trace.Record_batch.t -> int -> unit

val acc_finish : acc -> t

val sharing_pct : t -> float

val recall_pct : t -> float
