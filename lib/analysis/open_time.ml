module Cdf = Dfs_util.Cdf

type t = { by_opens : Cdf.t }

let short_open = 0.25

let table_xs =
  [| 0.01; 0.025; 0.05; 0.1; short_open; 0.5; 1.0; 2.5; 5.0; 10.0; 30.0; 100.0 |]

let chart_xs = Cdf.log_xs ~lo:0.01 ~hi:100.0 ~per_decade:4

let points = Cdf.union [ table_xs; chart_xs ]

let create () = { by_opens = Cdf.create points }

let add t (a : Session.access) =
  if not a.a_is_dir then Cdf.add t.by_opens (Session.duration a)

let analyze accesses =
  let t = create () in
  List.iter (add t) accesses;
  t

let fraction_under t secs = Cdf.fraction_below t.by_opens secs
