(** Figure 3: how long files stay open.  The paper found about 75% of
    opens lasted less than a quarter of a second. *)

type t = { by_opens : Dfs_util.Cdf.t }

val create : unit -> t
(** Empty accumulator; feed it with {!add} (the fused pass does). *)

val add : t -> Session.access -> unit

val analyze : Session.access list -> t

val default_xs : float array
(** 10 ms to 100 s, log spaced. *)

val fraction_under : t -> float -> float
(** [fraction_under t secs]: share of opens shorter than [secs]. *)
