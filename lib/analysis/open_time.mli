(** Figure 3: how long files stay open.  The paper found about 75% of
    opens lasted less than a quarter of a second. *)

type t = { by_opens : Dfs_util.Cdf.t }

val short_open : float
(** 0.25 s: the paper's "opens under a quarter of a second". *)

val table_xs : float array
(** The open times Figure 3's table prints, {!short_open} among them. *)

val chart_xs : float array
(** 10 ms to 100 s, four a decade: the open times its chart plots. *)

val points : float array
(** {!table_xs} and {!chart_xs}: where the CDF answers. *)

val create : unit -> t
(** Empty accumulator; feed it with {!add} (the fused pass does). *)

val add : t -> Session.access -> unit

val analyze : Session.access list -> t

val fraction_under : t -> float -> float
(** [fraction_under t secs]: share of opens that lasted at most [secs],
    a point of {!points}. *)
