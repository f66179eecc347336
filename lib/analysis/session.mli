(** Reconstruction of per-access information from a trace.

    The traces record positions at opens, closes and repositions — not
    individual reads and writes — so, exactly as in the BSD study and the
    paper, the byte ranges transferred are {e deduced}: every interval
    between two consecutive position-defining events is one sequential
    run.  An {e access} is one open-use-close episode of one file by one
    process. *)

type access = {
  a_user : Dfs_trace.Ids.User.t;
  a_client : Dfs_trace.Ids.Client.t;
  a_migrated : bool;
  a_file : Dfs_trace.Ids.File.t;
  a_is_dir : bool;
  a_mode : Dfs_trace.Record.open_mode;  (** the mode the file was opened in *)
  a_open_time : float;
  a_close_time : float;
  a_size_open : int;  (** file size at open *)
  a_size_close : int;  (** file size at close *)
  a_bytes_read : int;
  a_bytes_written : int;
  a_runs : int list;  (** sequential run lengths, in event order *)
  a_repositions : int;
}

type usage = Read_only | Write_only | Read_write
(** Actual usage during the access (not the open mode). *)

val usage : access -> usage option
(** [None] when the access transferred no bytes. *)

type sequentiality = Whole_file | Other_sequential | Random

val sequentiality : access -> sequentiality
(** Whole-file: the entire file was transferred in one run from start to
    finish; other-sequential: a single sequential run; random: anything
    else. *)

val bytes : access -> int

val duration : access -> float

val of_batch : Dfs_trace.Record_batch.t -> access list
(** Replay the trace and return completed accesses in close-time order.
    A reposition or close applies to the newest open access of its
    (client, pid, file) handle.  Opens with no matching close (trace cut
    off) are dropped, as are closes with no matching open. *)

val sweep :
  Dfs_trace.Record_batch.t ->
  on_record:(Dfs_trace.Record_batch.t -> int -> unit) ->
  on_access:(access -> unit) ->
  unit
(** One pass over the batch: [on_record batch i] fires for every record
    index in order (for fused per-record folds), [on_access] for every
    completed access in close-time order — the same order {!of_batch}
    returns. *)

val sweep_seq :
  Dfs_trace.Record_batch.t Seq.t ->
  on_record:(Dfs_trace.Record_batch.t -> int -> unit) ->
  on_boundary:
    (user:Dfs_trace.Ids.User.t ->
    migrated:bool ->
    is_dir:bool ->
    time:float ->
    int ->
    unit) ->
  on_access:(access -> unit) ->
  unit
(** {!sweep} over a chunked trace; at most one chunk is forced at a
    time.  [on_boundary ~user ~migrated ~is_dir ~time run] fires at each
    run boundary (a reposition or close ending a run of [run > 0]
    bytes), with the in-progress access's user, migration flag and
    directory flag: an interval analysis attributes the run's bytes at
    the moment they are known. *)
