(* A reference model of Dfs_trace.Merge for test_trace.ml: the k-way
   merge over boxed record lists.  It pushes and pops the same
   Dfs_util.Heap in the same order as [Merge.merge_iter], so records with
   equal (time, server) keys come out in the same order too.

   The heap's vacated-slot filler is a distinct constructor rather than
   a fabricated record, so no data value can collide with it.
   [Sentinel] never enters the heap through [push]; comparing one means
   the heap leaked a dummy slot. *)

open Dfs_trace

module Cursor = struct
  type t = Sentinel | Live of Record.t * Record.t list

  let compare a b =
    match (a, b) with
    | Live (a, _), Live (b, _) -> Record.compare_time a b
    | Sentinel, _ | _, Sentinel ->
      invalid_arg "Merge_model.Cursor.compare: sentinel cursor compared"

  let dummy = Sentinel
end

module H = Dfs_util.Heap.Make (Cursor)

(* Merge per-server lists, each sorted by time. *)
let merge streams =
  let heap = H.create () in
  List.iter
    (function [] -> () | r :: rest -> H.push heap (Cursor.Live (r, rest)))
    streams;
  let rec go acc =
    match H.pop heap with
    | None -> List.rev acc
    | Some Cursor.Sentinel -> invalid_arg "Merge_model.merge: sentinel popped"
    | Some (Cursor.Live (r, rest)) ->
      (match rest with
      | [] -> ()
      | r' :: rest' -> H.push heap (Cursor.Live (r', rest')));
      go (r :: acc)
  in
  go []

(* Drop the records of infrastructure users. *)
let scrub ~self_users records =
  List.filter
    (fun (r : Record.t) -> not (Ids.User.Set.mem r.user self_users))
    records

let rec is_sorted = function
  | [] | [ _ ] -> true
  | a :: (b :: _ as rest) -> (a : Record.t).time <= b.time && is_sorted rest
