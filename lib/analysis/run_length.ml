module Cdf = Dfs_util.Cdf

type t = { by_runs : Cdf.t; by_bytes : Cdf.t }

let byte_xs = Cdf.log_xs ~lo:1024.0 ~hi:10_485_760.0 ~per_decade:2

let short_run = 10240.0

let long_run = float_of_int Dfs_util.Units.mib

let points = Cdf.union [ byte_xs; [| short_run; long_run |] ]

let create () = { by_runs = Cdf.create points; by_bytes = Cdf.create points }

let add t (a : Session.access) =
  if not a.a_is_dir then
    List.iter
      (fun run ->
        if run > 0 then begin
          let r = float_of_int run in
          Cdf.add t.by_runs r;
          Cdf.add_weighted t.by_bytes ~weight:r r
        end)
      a.a_runs

let analyze accesses =
  let t = create () in
  List.iter (add t) accesses;
  t
