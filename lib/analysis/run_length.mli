(** Figure 1: sequential run lengths.

    A sequential run is a portion of a file read or written sequentially —
    a series of transfers bounded by an open or reposition at the start
    and a close or reposition at the end.  The top graph weights runs by
    count, the bottom by the bytes they carry. *)

type t = {
  by_runs : Dfs_util.Cdf.t;  (** weighted by number of runs *)
  by_bytes : Dfs_util.Cdf.t;  (** weighted by bytes transferred *)
}

val byte_xs : float array
(** 1 KB to 10 MB, two a decade: the sizes Figures 1 and 2 print and
    plot. *)

val short_run : float
(** 10 KB: the paper's "runs under 10 KB". *)

val long_run : float
(** 1 MB: the paper's "bytes in runs over 1 MB". *)

val points : float array
(** {!byte_xs}, {!short_run} and {!long_run}: where the CDFs answer. *)

val create : unit -> t
(** Empty accumulator; feed it with {!add} (the fused pass does). *)

val add : t -> Session.access -> unit

val analyze : Session.access list -> t
(** Directory accesses are excluded, as in Section 4. *)
