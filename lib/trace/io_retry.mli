(** Bounded retries with capped exponential backoff for the pipeline's
    real disk I/O (spill sealing, trace fsync).

    Transient [Unix_error]s (EINTR, EAGAIN, EIO, EBUSY) are retried up
    to [attempts] times with a doubling sleep capped at 250 ms;
    every retry bumps [trace.io.retries], and a run that exhausts its
    attempts bumps [trace.io.giveups] before re-raising.  Permanent
    errors (ENOSPC, EACCES, [Sys_error], ...) propagate immediately.

    The {!set_inject} hook lets tests compose the loop with
    {!Dfs_fault.Profile}-style transient disk errors: install a seeded
    hook raising [Unix_error (EIO, ...)] on chosen attempts and assert
    the sealing path still converges deterministically. *)

val run :
  ?attempts:int ->
  ?base_delay:float ->
  op:string ->
  path:string ->
  (unit -> 'a) ->
  'a
(** [run ~op ~path f] calls [f] until it succeeds or retries are
    exhausted.  [op]/[path] only label diagnostics and the inject hook.
    @raise Invalid_argument when [attempts < 1]. *)

val set_inject :
  (op:string -> path:string -> attempt:int -> unit) option -> unit
(** Install (or clear, with [None]) a fault hook called before every
    attempt.  A hook that raises a transient [Unix_error] simulates a
    failing disk; tests must clear it afterwards. *)
