type t = { by_runs : Dfs_util.Cdf.t; by_bytes : Dfs_util.Cdf.t }

let create () =
  { by_runs = Dfs_util.Cdf.create (); by_bytes = Dfs_util.Cdf.create () }

let add t (a : Session.access) =
  if not a.a_is_dir then
    List.iter
      (fun run ->
        if run > 0 then begin
          let r = float_of_int run in
          Dfs_util.Cdf.add t.by_runs r;
          Dfs_util.Cdf.add t.by_bytes ~weight:r r
        end)
      a.a_runs

let analyze accesses =
  let t = create () in
  List.iter (add t) accesses;
  t
