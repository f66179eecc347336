(** Plain-text line charts for the figure reproductions: cumulative
    distributions drawn on a log-x axis, several series per chart, one
    glyph per series — close in spirit to the paper's Figures 1-4. *)

type series = {
  s_name : string;
  s_glyph : char;
  s_points : (float * float) array;
      (** (x, y) with y in [0, 100]; x ascending *)
}

val render : title:string -> x_label:string -> series list -> string
(** Draw the series on a log-x, linear-y (0-100%) grid with a plot area
    64 columns wide and 16 rows high.  Series must contain at least one
    point with x > 0. *)

val of_cdf :
  name:string ->
  glyph:char ->
  xs:float array ->
  Cdf.t ->
  series
(** Sample a CDF at the given points into a plottable series
    (y in percent). *)
