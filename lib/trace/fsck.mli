(** Trace-file verification and repair (the engine behind
    [dfs_repro fsck]).

    Files are classified by content, not extension — the same magic
    sniff the readers use — then walked with the format's validator.
    Repair truncates a damaged file to its longest valid prefix (whole
    segments / lines) and removes orphaned [.tmp] files left by an
    interrupted atomic seal; files in neither trace format are reported
    [Unknown] and never modified. *)

type status =
  | Clean  (** fully valid *)
  | Corrupt  (** damage found (and left in place) *)
  | Repaired  (** damage found and the valid prefix kept *)
  | Orphan_tmp  (** leftover [.tmp] from an interrupted seal *)
  | Unknown  (** not a recognized trace format; never repaired *)
  | Io_error  (** could not read (or repair) the file at all *)

val status_to_string : status -> string
(** [ok] / [corrupt] / [repaired] / [orphan-tmp] / [unknown] / [error]. *)

type verdict = {
  path : string;
  format : string;  (** [columnar] / [text] / [tmp] / [unknown] *)
  status : status;
  records : int;  (** records in the valid prefix *)
  valid_bytes : int;  (** length of the valid prefix *)
  total_bytes : int;  (** file size (post-repair size when repaired) *)
  reason : string option;  (** first damage, one line, with offset *)
  repaired : bool;
}

val verdict_to_json : verdict -> Dfs_obs.Json.t
(** One machine-readable verdict object (the [fsck] JSONL output). *)

val check_file : ?repair:bool -> string -> verdict
(** Verify one file; with [repair] (default false) also truncate
    corrupt traces to their valid prefix, rewrite an all-invalid
    columnar file as one empty sealed segment, and delete orphan
    [.tmp]s.  Repairs are fsynced (file and directory). *)

val check_paths : ?repair:bool -> string list -> verdict list
(** {!check_file} over each path; directories expand to their
    [.dfsc]/[.dfsb]/[.trace]/[.txt]/[.tmp] entries, sorted. *)

val exit_code : verdict list -> int
(** 0 — everything clean; 1 — corruption, orphans or unknown files
    found (even if repaired); 2 — an I/O error prevented a full
    answer. *)
