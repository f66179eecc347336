type block = {
  mutable dirty : bool;
  mutable dirtied_at : float;
  mutable dirty_bytes : int;
}

type t = (int, (int, block) Hashtbl.t) Hashtbl.t

let create () : t = Hashtbl.create 8

let tbl t client =
  match Hashtbl.find_opt t client with
  | Some tbl -> tbl
  | None ->
    let tbl = Hashtbl.create 16 in
    Hashtbl.replace t client tbl;
    tbl

let mem t ~client ~index =
  match Hashtbl.find_opt t client with
  | None -> false
  | Some tbl -> Hashtbl.mem tbl index

let insert_clean t ~client ~index =
  let tbl = tbl t client in
  if not (Hashtbl.mem tbl index) then
    Hashtbl.replace tbl index { dirty = false; dirtied_at = 0.0; dirty_bytes = 0 }

let insert_dirty t ~client ~index ~bytes ~now =
  let block_size = Dfs_util.Units.block_size in
  let tbl = tbl t client in
  match Hashtbl.find_opt tbl index with
  | Some b ->
    if not b.dirty then begin
      b.dirty <- true;
      b.dirtied_at <- now
    end;
    b.dirty_bytes <- min block_size (b.dirty_bytes + bytes)
  | None ->
    Hashtbl.replace tbl index
      { dirty = true; dirtied_at = now; dirty_bytes = min block_size bytes }

let invalidate_client t ~client = Hashtbl.remove t client

let flush_dirty t ~client ?older_than ~now () =
  match Hashtbl.find_opt t client with
  | None -> (0, 0)
  | Some tbl ->
    let cleaned = ref 0 and bytes = ref 0 in
    Hashtbl.iter
      (fun _ b ->
        if b.dirty then begin
          let old_enough =
            match older_than with
            | None -> true
            | Some age -> now -. b.dirtied_at >= age
          in
          if old_enough then begin
            b.dirty <- false;
            bytes := !bytes + b.dirty_bytes;
            b.dirty_bytes <- 0;
            incr cleaned
          end
        end)
      tbl;
    (!cleaned, !bytes)

let clients t = Hashtbl.fold (fun c _ acc -> c :: acc) t []
