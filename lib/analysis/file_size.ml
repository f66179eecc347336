module Cdf = Dfs_util.Cdf

type t = { by_files : Cdf.t; by_bytes : Cdf.t }

let large_file = float_of_int Dfs_util.Units.mib

let points = Cdf.union [ Run_length.byte_xs; [| large_file |] ]

let create () = { by_files = Cdf.create points; by_bytes = Cdf.create points }

let add t (a : Session.access) =
  if not a.a_is_dir then begin
    let size = float_of_int a.a_size_close in
    let transferred = Session.bytes a in
    Cdf.add t.by_files size;
    if transferred > 0 then
      Cdf.add_weighted t.by_bytes ~weight:(float_of_int transferred) size
  end

let analyze accesses =
  let t = create () in
  List.iter (add t) accesses;
  t
