module Record = Dfs_trace.Record
module Ids = Dfs_trace.Ids
module B = Dfs_trace.Record_batch

type access = {
  a_user : Ids.User.t;
  a_client : Ids.Client.t;
  a_migrated : bool;
  a_file : Ids.File.t;
  a_is_dir : bool;
  a_mode : Record.open_mode;
  a_open_time : float;
  a_close_time : float;
  a_size_open : int;
  a_size_close : int;
  a_bytes_read : int;
  a_bytes_written : int;
  a_runs : int list;
  a_repositions : int;
}

type usage = Read_only | Write_only | Read_write

let usage a =
  match (a.a_bytes_read > 0, a.a_bytes_written > 0) with
  | true, false -> Some Read_only
  | false, true -> Some Write_only
  | true, true -> Some Read_write
  | false, false -> None

type sequentiality = Whole_file | Other_sequential | Random

let sequentiality a =
  match a.a_runs with
  | [] -> Other_sequential
  | [ run ] ->
    (* One sequential run; whole-file when it covered the file start to
       finish.  For reads the reference size is the size at open, for
       writes the size at close. *)
    let reference =
      if a.a_bytes_written > 0 then a.a_size_close else a.a_size_open
    in
    if a.a_repositions = 0 && run >= reference && reference > 0 then Whole_file
    else Other_sequential
  | _ :: _ :: _ -> Random

let bytes a = a.a_bytes_read + a.a_bytes_written

let duration a = a.a_close_time -. a.a_open_time

(* In-progress open handle. *)
type pending = {
  p_pid : int;
  p_user : Ids.User.t;
  p_client : Ids.Client.t;
  p_migrated : bool;
  p_file : Ids.File.t;
  p_is_dir : bool;
  p_mode : Record.open_mode;
  p_open_time : float;
  p_size_open : int;
  mutable run_start : int;
  mutable runs_rev : int list;
  mutable repositions : int;
}

let finish (p : pending) close_time ~size ~bytes_read ~bytes_written =
  {
    a_user = p.p_user;
    a_client = p.p_client;
    a_migrated = p.p_migrated;
    a_file = p.p_file;
    a_is_dir = p.p_is_dir;
    a_mode = p.p_mode;
    a_open_time = p.p_open_time;
    a_close_time = close_time;
    a_size_open = p.p_size_open;
    a_size_close = size;
    a_bytes_read = bytes_read;
    a_bytes_written = bytes_written;
    a_runs = List.rev p.runs_rev;
    a_repositions = p.repositions;
  }

module Handles = Dfs_util.Itbl.Handles (struct
  type t = pending

  let pid p = p.p_pid
end)

(* The scan walks the batch columns directly (unsafe accessors: the loop
   index is bounded by the batch length); the only allocations are one
   [pending] per open and the handle-table bookkeeping.  The handle
   table (one list per (client, file) pair, each entry with its pid)
   persists across batches, so a chunked trace scans identically to the
   same records in one contiguous batch. *)
let sweep_seq batches ~on_record ~on_boundary ~on_access =
  let open_tbl = Handles.create 1024 in
  (* A run boundary reaches [on_boundary] as the fields of the
     in-progress access an interval analysis needs, so nothing is
     allocated for it. *)
  let boundary p time run =
    on_boundary ~user:p.p_user ~migrated:p.p_migrated ~is_dir:p.p_is_dir ~time
      run
  in
  Seq.iter
    (fun batch ->
      for i = 0 to B.length batch - 1 do
        on_record batch i;
        let tag = B.Unsafe.tag batch i in
        if tag = B.tag_open || tag = B.tag_reposition || tag = B.tag_close
        then begin
          let key =
            Dfs_util.Itbl.pair (B.Unsafe.client batch i) (B.Unsafe.file batch i)
          and pid = B.Unsafe.pid batch i in
          if tag = B.tag_open then
            Handles.push open_tbl key
              {
                p_pid = pid;
                p_user = B.Unsafe.user_id batch i;
                p_client = Ids.Client.of_int (B.Unsafe.client batch i);
                p_migrated = B.Unsafe.migrated batch i;
                p_file = B.Unsafe.file_id batch i;
                p_is_dir = B.Unsafe.is_dir batch i;
                p_mode = B.Unsafe.open_mode batch i;
                p_open_time = B.Unsafe.time batch i;
                p_size_open = B.Unsafe.a batch i;
                run_start = B.Unsafe.b batch i;
                runs_rev = [];
                repositions = 0;
              }
          else if tag = B.tag_reposition then begin
            match Handles.top open_tbl key ~pid with
            | None -> ()
            | Some p ->
              let run = B.Unsafe.a batch i - p.run_start in
              if run > 0 then begin
                p.runs_rev <- run :: p.runs_rev;
                boundary p (B.Unsafe.time batch i) run
              end;
              p.run_start <- B.Unsafe.b batch i;
              p.repositions <- p.repositions + 1
          end
          else begin
            match Handles.pop open_tbl key ~pid with
            | None -> ()
            | Some p ->
              let run = B.Unsafe.b batch i - p.run_start in
              if run > 0 then begin
                p.runs_rev <- run :: p.runs_rev;
                boundary p (B.Unsafe.time batch i) run
              end;
              on_access
                (finish p (B.Unsafe.time batch i) ~size:(B.Unsafe.a batch i)
                   ~bytes_read:(B.Unsafe.c batch i)
                   ~bytes_written:(B.Unsafe.d batch i))
          end
        end
      done)
    batches

let no_record _ _ = ()

let no_boundary ~user:_ ~migrated:_ ~is_dir:_ ~time:_ _ = ()

let sweep batch ~on_record ~on_access =
  sweep_seq (Seq.return batch) ~on_record ~on_boundary:no_boundary ~on_access

let of_batch batch =
  let acc = ref [] in
  sweep batch ~on_record:no_record ~on_access:(fun a -> acc := a :: !acc);
  List.rev !acc
