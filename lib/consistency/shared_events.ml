module Record = Dfs_trace.Record
module Ids = Dfs_trace.Ids
module B = Dfs_trace.Record_batch
module Itbl = Dfs_util.Itbl

type event =
  | Open of { client : int; writer : bool }
  | Close of { client : int; writer : bool }
  | Read of { client : int; off : int; len : int }
  | Write of { client : int; off : int; len : int }

type timed = { time : float; ev : event }

type stream = {
  file : Ids.File.t;
  events : timed list;
  requested_bytes : int;
  requests : int;
}

let is_writer = function
  | Record.Write_only | Record.Read_write -> true
  | Record.Read_only -> false

type acc = { shared : unit Itbl.t }  (* the write-shared files *)

let acc_create () = { shared = Itbl.create 64 }

let acc_record acc batch i =
  let tag = B.tag batch i in
  if tag = B.tag_shared_read || tag = B.tag_shared_write then
    Itbl.replace acc.shared (B.Unsafe.file batch i) ()

(* An open handle: only whether it was opened for writing is needed at
   its close. *)
type handle = { pid : int; writer : bool }

module Handles = Itbl.Handles (struct
  type t = handle

  let pid h = h.pid
end)

(* The second pass, over the write-shared files' records only.  The
   close record does not carry the open mode; it is recovered from the
   handle's matching open. *)
let acc_finish acc batches =
  if Itbl.length acc.shared = 0 then []
  else begin
    let handles = Handles.create 256 in
    let per_file : timed list ref Itbl.t = Itbl.create 64 in
    Seq.iter
      (fun batch ->
        for i = 0 to B.length batch - 1 do
          let file = B.file batch i in
          if Itbl.mem acc.shared file then begin
            let client = B.Unsafe.client batch i in
            let emit ev =
              let l =
                match Itbl.find_opt per_file file with
                | Some l -> l
                | None ->
                  let l = ref [] in
                  Itbl.replace per_file file l;
                  l
              in
              l := { time = B.Unsafe.time batch i; ev } :: !l
            in
            let tag = B.Unsafe.tag batch i in
            if tag = B.tag_open then begin
              if not (B.Unsafe.is_dir batch i) then begin
                let writer = is_writer (B.Unsafe.open_mode batch i) in
                Handles.push handles (Itbl.pair client file)
                  { pid = B.Unsafe.pid batch i; writer };
                emit (Open { client; writer })
              end
            end
            else if tag = B.tag_close then begin
              match
                Handles.pop handles (Itbl.pair client file)
                  ~pid:(B.Unsafe.pid batch i)
              with
              | None -> ()
              | Some h -> emit (Close { client; writer = h.writer })
            end
            else if tag = B.tag_shared_read then
              emit
                (Read
                   { client; off = B.Unsafe.a batch i; len = B.Unsafe.b batch i })
            else if tag = B.tag_shared_write then
              emit
                (Write
                   { client; off = B.Unsafe.a batch i; len = B.Unsafe.b batch i })
          end
        done)
      batches;
    Itbl.fold
      (fun file events acc ->
        let events = List.rev !events in
        let requested_bytes, requests =
          List.fold_left
            (fun (b, n) { ev; _ } ->
              match ev with
              | Read { len; _ } | Write { len; _ } -> (b + len, n + 1)
              | Open _ | Close _ -> (b, n))
            (0, 0) events
        in
        { file = Ids.File.of_int file; events; requested_bytes; requests }
        :: acc)
      per_file []
    |> List.sort (fun a b -> Ids.File.compare a.file b.file)
  end

let extract batch =
  let acc = acc_create () in
  for i = 0 to B.length batch - 1 do
    acc_record acc batch i
  done;
  acc_finish acc (Seq.return batch)

let total_requested streams =
  List.fold_left (fun acc s -> acc + s.requested_bytes) 0 streams

let total_requests streams =
  List.fold_left (fun acc s -> acc + s.requests) 0 streams
