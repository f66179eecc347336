(* Capped-exponential-backoff retries for the trace pipeline's real disk
   I/O (spill sealing, trace-file fsync).

   Transient host-side errors — EINTR, EAGAIN, EIO, EBUSY — get a few
   bounded retries with a doubling, capped sleep between attempts, the
   same shape [Dfs_fault.Injector] charges simulated clients.  Anything
   else (ENOSPC, EACCES, Sys_error from a missing directory, ...) is
   treated as permanent and propagates immediately: retrying cannot fix
   it and would only delay the diagnostic.

   The [inject] hook exists so tests and the chaos harness can compose
   this loop with [Dfs_fault]-style transient disk errors: install a
   seeded hook that raises [Unix_error (EIO, ...)] on a deterministic
   subset of attempts and the sealing path must still converge. *)

let default_attempts = 5

let default_base_delay = 0.002

let max_delay = 0.250

let m_retries = Dfs_obs.Metrics.counter "trace.io.retries"

let m_giveups = Dfs_obs.Metrics.counter "trace.io.giveups"

let inject : (op:string -> path:string -> attempt:int -> unit) option ref =
  ref None

let set_inject f = inject := f

let is_transient = function
  | Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK
                     | Unix.EIO | Unix.EBUSY), _, _) ->
    true
  | _ -> false

let run ?(attempts = default_attempts) ?(base_delay = default_base_delay) ~op
    ~path f =
  if attempts < 1 then invalid_arg "Io_retry.run: attempts must be >= 1";
  let rec go attempt delay =
    match
      (match !inject with Some hook -> hook ~op ~path ~attempt | None -> ());
      f ()
    with
    | result -> result
    | exception e when is_transient e && attempt + 1 < attempts ->
      Dfs_obs.Metrics.incr m_retries;
      Dfs_obs.Log.warn "%s %s: transient I/O error (attempt %d/%d): %s" op
        path (attempt + 1) attempts (Printexc.to_string e);
      if delay > 0.0 then Unix.sleepf delay;
      go (attempt + 1) (Float.min (2.0 *. delay) max_delay)
    | exception e ->
      if is_transient e then Dfs_obs.Metrics.incr m_giveups;
      raise e
  in
  go 0 base_delay
