(* Corruption handling policy for trace readers.

   Every reader defaults to [Fail]: a checksum mismatch, torn segment or
   malformed record turns into an [Error]/[Failure] immediately, which
   is the right behavior for tests and for freshly produced data.
   Long analysis runs over archived or foreign traces can opt into
   [Salvage]: the reader keeps the longest valid prefix of the damaged
   source, records the incident in the two counters below, warns once
   per source, and carries on. *)

type policy = Fail | Salvage

let of_string = function
  | "fail" -> Ok Fail
  | "salvage" -> Ok Salvage
  | s -> Error (Printf.sprintf "bad corruption policy %S (expected fail|salvage)" s)

let m_detected = Dfs_obs.Metrics.counter "trace.corruption.detected"

let m_salvaged = Dfs_obs.Metrics.counter "trace.corruption.salvaged_records"

(* One detection event: [salvaged] is how many records were still
   recoverable ahead of the damage. *)
let note ~source ~salvaged reason =
  Dfs_obs.Metrics.incr m_detected;
  Dfs_obs.Metrics.add m_salvaged salvaged;
  Dfs_obs.Log.warn "%s: corrupt trace salvaged (%d records kept): %s" source
    salvaged reason

let detected () = Dfs_obs.Metrics.value m_detected

let salvaged_records () = Dfs_obs.Metrics.value m_salvaged
