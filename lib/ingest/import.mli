(** End-to-end importer: SNIA-style CSV → canonical trace records.

    Pipeline: parse rows ({!Snia}) with per-line diagnostics under the
    usual [Fail]/[Salvage] corruption policy, rebase timestamps to
    seconds from the first event (auto-detecting Windows FILETIME
    units), remap foreign identities into dense id spaces ({!Idmap}),
    run open/close inference ({!Infer}), and verify every synthesized
    record with {!Dfs_trace.Record.validate}.

    Column mapping (documented in README "Ingesting external traces"):
    - [Timestamp] → {!Dfs_trace.Record.t.time} (seconds from first row)
    - [Hostname] → client id, user id and pid (one process per host)
    - [(Hostname, DiskNumber)] → file id
    - file id [mod n_servers] → server id (deterministic placement)
    - [Type]/[Offset]/[Size] → inferred open mode, positions, byte
      totals
    - [ResponseTime] → ignored

    The result is a time-sorted, validated record stream that the
    replay driver and every analysis consume unchanged. *)

type stats = {
  rows : int;  (** data rows parsed successfully *)
  bad_rows : int;  (** rows dropped under [Salvage] *)
  hosts : int;  (** distinct hostnames → clients *)
  files : int;  (** distinct (host, disk) pairs → files *)
  records : int;  (** synthesized trace records *)
  duration : float;  (** seconds spanned by the imported records *)
}

val of_csv_string :
  ?config:Infer.config ->
  ?n_servers:int ->
  ?on_corruption:Dfs_trace.Corruption.policy ->
  ?source:string ->
  string ->
  (Dfs_trace.Record.t list * stats, string) result
(** Import CSV text.  [n_servers] (default 4, the measured cluster)
    sets the deterministic file→server placement modulus.  Under [Fail]
    (default) the first malformed row is an [Error "source:line N: …"];
    under [Salvage] malformed rows are dropped, counted in [bad_rows]
    and noted in the [trace.corruption.*] metrics. *)

val of_csv_file :
  ?config:Infer.config ->
  ?n_servers:int ->
  ?on_corruption:Dfs_trace.Corruption.policy ->
  string ->
  (Dfs_trace.Record.t list * stats, string) result
(** {!of_csv_string} on a file's contents, with the path as [source].  A
    path that cannot be opened or read (a directory, say) is an [Error]
    that starts with the path. *)
