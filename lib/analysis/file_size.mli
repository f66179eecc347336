(** Figure 2: dynamic file-size distribution, measured when files are
    closed.  Weighted by number of accesses (top) and by the bytes
    transferred to or from the file during the access (bottom). *)

type t = {
  by_files : Dfs_util.Cdf.t;
  by_bytes : Dfs_util.Cdf.t;
}

val create : unit -> t
(** Empty accumulator; feed it with {!add} (the fused pass does). *)

val add : t -> Session.access -> unit

val analyze : Session.access list -> t
