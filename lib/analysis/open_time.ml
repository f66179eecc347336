type t = { by_opens : Dfs_util.Cdf.t }

let create () = { by_opens = Dfs_util.Cdf.create () }

let add t (a : Session.access) =
  if not a.a_is_dir then Dfs_util.Cdf.add t.by_opens (Session.duration a)

let analyze accesses =
  let t = create () in
  List.iter (add t) accesses;
  t

let default_xs = Dfs_util.Cdf.log_xs ~lo:0.01 ~hi:100.0 ~per_decade:4

let fraction_under t secs = Dfs_util.Cdf.fraction_below t.by_opens secs
