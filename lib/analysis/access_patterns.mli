(** Table 3: file access patterns.

    Accesses (open-use-close episodes of regular files) are classified by
    actual usage — read-only, write-only, read/write — and, within each
    class, by sequentiality: whole-file, other-sequential, or random.
    Percentages are reported both by access count and by bytes
    transferred. *)

type cell = { accesses : int; bytes : int }

type class_report = {
  total : cell;
  whole_file : cell;
  other_sequential : cell;
  random : cell;
}

type t = {
  read_only : class_report;
  write_only : class_report;
  read_write : class_report;
  grand_total : cell;
}

type acc
(** Incremental accumulator for the fused analysis pass. *)

val acc_create : unit -> acc

val acc_add : acc -> Session.access -> unit

val acc_finish : acc -> t

val analyze : Session.access list -> t

(** Percentage helpers for report rendering. *)

val pct_accesses : t -> class_report -> float
(** Share of all accesses in this usage class. *)

val pct_bytes : t -> class_report -> float

val seq_pct_accesses : class_report -> Session.sequentiality -> float
(** Within-class sequentiality split, by accesses. *)

val seq_pct_bytes : class_report -> Session.sequentiality -> float
