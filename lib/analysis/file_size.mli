(** Figure 2: dynamic file-size distribution, measured when files are
    closed.  Weighted by number of accesses (top) and by the bytes
    transferred to or from the file during the access (bottom). *)

type t = {
  by_files : Dfs_util.Cdf.t;
  by_bytes : Dfs_util.Cdf.t;
}

val large_file : float
(** 1 MB: the paper's share of bytes to and from files of 1 MB or
    more. *)

val points : float array
(** {!Run_length.byte_xs} (Figures 1 and 2 share the byte axis) and
    {!large_file}: where the CDFs answer. *)

val create : unit -> t
(** Empty accumulator; feed it with {!add} (the fused pass does). *)

val add : t -> Session.access -> unit

val analyze : Session.access list -> t
