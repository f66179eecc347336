(** Extraction of the event streams the consistency simulations consume.

    The paper logged, for every file undergoing concurrent write-sharing,
    each read or write request's position, size and time (easy in Sprite:
    uncacheable requests all pass through the server), and used those
    events to drive the simulations of Section 5.6.  This module pulls the
    same per-file streams out of a trace: the opens and closes of each
    write-shared file plus its shared read/write requests. *)

type event =
  | Open of { client : int; writer : bool }
  | Close of { client : int; writer : bool }
  | Read of { client : int; off : int; len : int }
  | Write of { client : int; off : int; len : int }

type timed = { time : float; ev : event }

type stream = {
  file : Dfs_trace.Ids.File.t;
  events : timed list;  (** chronological *)
  requested_bytes : int;  (** total bytes of Read/Write events *)
  requests : int;  (** number of Read/Write events *)
}

val extract : Dfs_trace.Record_batch.t -> stream list
(** One stream per file that experienced write-sharing (i.e. has at least
    one shared read/write record), in file order. *)

(** {1 Accumulator}

    {!extract} as a per-record fold that collects the write-shared
    files, which the fused analysis pass drives, and a second pass that
    extracts their streams.  A file's events before its first shared
    record count too, so one pass would have to hold every open of every
    file until the trace ends; the second pass holds only the shared
    files' events. *)

type acc

val acc_create : unit -> acc

val acc_record : acc -> Dfs_trace.Record_batch.t -> int -> unit

val acc_finish : acc -> Dfs_trace.Record_batch.t Seq.t -> stream list
(** [acc_finish acc batches] extracts the streams of the files [acc]
    collected from [batches], which must be the records the fold saw,
    again: one pass over the stream, skipped when no file was
    write-shared. *)

val total_requested : stream list -> int

val total_requests : stream list -> int
