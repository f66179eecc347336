(** Figure 1: sequential run lengths.

    A sequential run is a portion of a file read or written sequentially —
    a series of transfers bounded by an open or reposition at the start
    and a close or reposition at the end.  The top graph weights runs by
    count, the bottom by the bytes they carry. *)

type t = {
  by_runs : Dfs_util.Cdf.t;  (** weighted by number of runs *)
  by_bytes : Dfs_util.Cdf.t;  (** weighted by bytes transferred *)
}

val create : unit -> t
(** Empty accumulator; feed it with {!add} (the fused pass does). *)

val add : t -> Session.access -> unit

val analyze : Session.access list -> t
(** Directory accesses are excluded, as in Section 4. *)

val default_xs : float array
(** The log-spaced run-length axis used in the paper's figure
    (100 bytes to 10 MB). *)
