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
  Cdf.t list ->
  series
(** Sample the CDF the parts pool into ({!Cdf.fraction_below_pooled}) at
    the given points, each a declared point of every part, into a
    plottable series (y in percent).  One CDF is the one-part list. *)
