(* A bounded-memory destination for trace records.

   Emitted records accumulate in a columnar [Record_batch.Builder]; every
   [chunk_records] appends the open chunk is sealed.  Sealed chunks either
   stay in memory as batches or — when a spill directory is configured —
   are written out as self-describing columnar [Segment] files (fixed
   header plus naturally-aligned whole columns) and only a path plus
   record count stays live.  A finished sink is a [chunks] value: an
   ordered list of segments that can be re-streamed as batches any number
   of times; spilled segments load back zero-copy via [Unix.map_file]
   (one mmap'd window per column) with no per-record decode. *)

module B = Record_batch

let default_chunk_records = 32_768

(* Chunk/spill telemetry; merged across domains by the registry. *)
let m_sealed = Dfs_obs.Metrics.counter "trace.sink.chunks_sealed"

let m_spilled = Dfs_obs.Metrics.counter "trace.sink.chunks_spilled"

let m_spilled_bytes = Dfs_obs.Metrics.counter "trace.sink.spilled_bytes"

type spill = { dir : string; name : string }

type chunk = Mem of B.t | Seg of { path : string; len : int }

type chunks = { segments : chunk list; total : int }

type t = {
  chunk_records : int;
  spill : spill option;
  builder : B.Builder.t;
  mutable sealed_rev : chunk list;
  mutable sealed_total : int;
  mutable next_seg : int;
}

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    (try Sys.mkdir dir 0o755
     with Sys_error _ when Sys.file_exists dir -> ())
  end

let create ?(chunk_records = default_chunk_records) ?spill () =
  if chunk_records < 1 then
    invalid_arg "Sink.create: chunk_records must be >= 1";
  Option.iter (fun s -> mkdir_p s.dir) spill;
  {
    chunk_records;
    spill;
    builder = B.Builder.create ~capacity:(min chunk_records 4096) ();
    sealed_rev = [];
    sealed_total = 0;
    next_seg = 0;
  }

let seg_path spill ~name ~index =
  Filename.concat spill.dir (Printf.sprintf "%s-%06d.dfsc" name index)

let seal t =
  let n = B.Builder.length t.builder in
  if n > 0 then begin
    let batch = B.Builder.snapshot t.builder in
    B.Builder.reset t.builder;
    Dfs_obs.Metrics.incr m_sealed;
    let chunk =
      match t.spill with
      | None -> Mem batch
      | Some spill ->
        let path = seg_path spill ~name:spill.name ~index:t.next_seg in
        t.next_seg <- t.next_seg + 1;
        (* Crash-safe: the chunk is only ever observable under its final
           name as a complete sealed segment (a crash mid-seal leaves an
           orphaned .tmp, which fsck removes). *)
        let bytes =
          Durable.replace ~op:"spill-seal" ~path (fun oc ->
              Segment.write_batch oc batch)
        in
        Dfs_obs.Metrics.incr m_spilled;
        Dfs_obs.Metrics.add m_spilled_bytes bytes;
        Seg { path; len = n }
    in
    t.sealed_rev <- chunk :: t.sealed_rev;
    t.sealed_total <- t.sealed_total + n
  end

let emit t r =
  B.Builder.add t.builder r;
  if B.Builder.length t.builder >= t.chunk_records then seal t

let emit_from t batch i =
  B.Builder.add_from t.builder batch i;
  if B.Builder.length t.builder >= t.chunk_records then seal t

(* A non-destructive snapshot: sealed chunks plus a copy of the open
   chunk.  The sink stays usable, so staged simulations can keep
   emitting and snapshot again later. *)
let chunks_now t =
  let sealed = List.rev t.sealed_rev in
  if B.Builder.length t.builder = 0 then
    { segments = sealed; total = t.sealed_total }
  else
    {
      segments = sealed @ [ Mem (B.Builder.snapshot t.builder) ];
      total = t.sealed_total + B.Builder.length t.builder;
    }

(* Seal the open chunk (spilling it if configured) and return the final
   segment list.  Emitting after [close] starts a fresh open chunk; the
   returned value is unaffected. *)
let close t =
  seal t;
  { segments = List.rev t.sealed_rev; total = t.sealed_total }

(* -- reading chunk streams ------------------------------------------------ *)

let load_chunk = function
  | Mem b -> b
  | Seg { path; _ } -> (
    match Segment.batch_of_file path with
    | Ok b -> b
    | Error e -> failwith (Printf.sprintf "Sink: bad spill segment %s: %s" path e))

let length c = c.total

let spilled_count c =
  List.fold_left
    (fun acc ch -> match ch with Seg _ -> acc + 1 | Mem _ -> acc)
    0 c.segments

(* Replayable: each traversal walks the segment list afresh, loading
   spilled segments on demand; at most one loaded chunk is live per
   in-flight traversal. *)
let to_seq c = Seq.map load_chunk (List.to_seq c.segments)

let iter_batches f c = Seq.iter f (to_seq c)

let iter f c = Seq.iter (B.iter f) (to_seq c)

let to_batch c =
  let builder = B.Builder.create ~capacity:(max 16 c.total) () in
  iter_batches (B.Builder.append_batch builder) c;
  B.Builder.finish builder

let of_batch b = { segments = (if B.length b = 0 then [] else [ Mem b ]); total = B.length b }

(* Delete any spilled segment files.  The chunks value must not be read
   afterwards. *)
let discard c =
  List.iter
    (function
      | Mem _ -> ()
      | Seg { path; _ } -> ( try Sys.remove path with Sys_error _ -> ()))
    c.segments

(* Drop everything the sink holds: in-memory chunks become collectable
   and spilled segments are deleted.  Previously returned [chunks]
   values that reference spilled segments must not be read afterwards. *)
let clear t =
  discard { segments = t.sealed_rev; total = t.sealed_total };
  t.sealed_rev <- [];
  t.sealed_total <- 0;
  B.Builder.reset t.builder
