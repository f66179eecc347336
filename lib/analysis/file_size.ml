type t = { by_files : Dfs_util.Cdf.t; by_bytes : Dfs_util.Cdf.t }

let create () =
  { by_files = Dfs_util.Cdf.create (); by_bytes = Dfs_util.Cdf.create () }

let add t (a : Session.access) =
  if not a.a_is_dir then begin
    let size = float_of_int a.a_size_close in
    let transferred = Session.bytes a in
    Dfs_util.Cdf.add t.by_files size;
    if transferred > 0 then
      Dfs_util.Cdf.add_weighted t.by_bytes ~weight:(float_of_int transferred) size
  end

let analyze accesses =
  let t = create () in
  List.iter (add t) accesses;
  t
