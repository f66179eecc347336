(* A cursor over one source's chunk stream: the currently-loaded batch,
   the index of the cursor's record within it, and the not-yet-loaded
   tail.  Only one chunk per source is ever live, so merging [k] spilled
   sources holds [k+1] chunks (the +1 is the output sink's open chunk)
   regardless of trace length. *)
module Chunk_cursor = struct
  type t = {
    mutable batch : Record_batch.t;
    mutable i : int;
    mutable rest : Sink.chunk list;
  }

  (* [Record.compare_time] on the cursors' records: time, then server
     id.  Cursor indices are maintained within bounds by
     [start]/[advance], so the unsafe reads are fenced. *)
  let compare a b =
    let c =
      Float.compare
        (Record_batch.Unsafe.time a.batch a.i)
        (Record_batch.Unsafe.time b.batch b.i)
    in
    if c <> 0 then c
    else
      Int.compare
        (Record_batch.Unsafe.server a.batch a.i)
        (Record_batch.Unsafe.server b.batch b.i)

  let dummy = { batch = Record_batch.of_list []; i = 0; rest = [] }

  (* Position on the first record of the first non-empty chunk; None when
     the source is exhausted. *)
  let rec start chunks =
    match chunks with
    | [] -> None
    | ch :: rest ->
      let b = Sink.load_chunk ch in
      if Record_batch.length b = 0 then start rest
      else Some { batch = b; i = 0; rest }

  (* Advance to the next record; false when exhausted. *)
  let advance t =
    if t.i + 1 < Record_batch.length t.batch then begin
      t.i <- t.i + 1;
      true
    end
    else
      match start t.rest with
      | None -> false
      | Some fresh ->
        t.batch <- fresh.batch;
        t.i <- fresh.i;
        t.rest <- fresh.rest;
        true
end

module CH = Dfs_util.Heap.Make (Chunk_cursor)

(* K-way merge of per-source chunk streams into [emit batch i] calls,
   time-ordered.  Sources must each be time-sorted (they are: per-server
   logs are appended in simulation order).  Equal (time, server) keys
   resolve by the heap's operation order, which is a pure function of
   the sources, so the output is deterministic. *)
let merge_iter sources ~emit =
  let heap = CH.create () in
  List.iter
    (fun (chunks : Sink.chunks) ->
      match Chunk_cursor.start chunks.segments with
      | None -> ()
      | Some c -> CH.push heap c)
    sources;
  let rec go () =
    match CH.pop heap with
    | None -> ()
    | Some c ->
      let batch = c.Chunk_cursor.batch and i = c.Chunk_cursor.i in
      if Chunk_cursor.advance c then CH.push heap c;
      emit batch i;
      go ()
  in
  go ()

let merge_chunks ?chunk_records ?spill ?(scrub = Ids.User.Set.empty) sources =
  Dfs_obs.Profiler.span ~cat:"merge" "trace.kway_merge" (fun () ->
      let sink = Sink.create ?chunk_records ?spill () in
      let keep =
        if Ids.User.Set.is_empty scrub then fun _ _ -> true
        else
          fun batch i ->
            not (Ids.User.Set.mem (Record_batch.Unsafe.user_id batch i) scrub)
      in
      merge_iter sources ~emit:(fun batch i ->
          if keep batch i then Sink.emit_from sink batch i);
      Sink.close sink)
