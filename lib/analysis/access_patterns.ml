type cell = { accesses : int; bytes : int }

type class_report = {
  total : cell;
  whole_file : cell;
  other_sequential : cell;
  random : cell;
}

type t = {
  read_only : class_report;
  write_only : class_report;
  read_write : class_report;
  grand_total : cell;
}

(* The report's cells, counted in place while the accesses stream by:
   slot [4 * usage + column], with usage read-only, write-only,
   read-write and column total, whole-file, other-sequential, random. *)
type acc = {
  slot_accesses : int array;
  slot_bytes : int array;
  mutable grand_accesses : int;
  mutable grand_bytes : int;
}

let acc_create () =
  {
    slot_accesses = Array.make 12 0;
    slot_bytes = Array.make 12 0;
    grand_accesses = 0;
    grand_bytes = 0;
  }

let bump acc slot ~bytes =
  acc.slot_accesses.(slot) <- acc.slot_accesses.(slot) + 1;
  acc.slot_bytes.(slot) <- acc.slot_bytes.(slot) + bytes

let acc_add acc (a : Session.access) =
  if not a.a_is_dir then
    match Session.usage a with
    | None -> ()
    | Some u ->
      let bytes = Session.bytes a in
      acc.grand_accesses <- acc.grand_accesses + 1;
      acc.grand_bytes <- acc.grand_bytes + bytes;
      let row =
        match u with
        | Session.Read_only -> 0
        | Session.Write_only -> 4
        | Session.Read_write -> 8
      in
      bump acc row ~bytes;
      bump acc
        (match Session.sequentiality a with
        | Session.Whole_file -> row + 1
        | Session.Other_sequential -> row + 2
        | Session.Random -> row + 3)
        ~bytes

let acc_finish acc =
  let cell slot =
    { accesses = acc.slot_accesses.(slot); bytes = acc.slot_bytes.(slot) }
  in
  let class_report row =
    {
      total = cell row;
      whole_file = cell (row + 1);
      other_sequential = cell (row + 2);
      random = cell (row + 3);
    }
  in
  {
    read_only = class_report 0;
    write_only = class_report 4;
    read_write = class_report 8;
    grand_total = { accesses = acc.grand_accesses; bytes = acc.grand_bytes };
  }

let analyze accesses =
  let acc = acc_create () in
  List.iter (acc_add acc) accesses;
  acc_finish acc

let pct a b = if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b

let pct_accesses t cr = pct cr.total.accesses t.grand_total.accesses

let pct_bytes t cr = pct cr.total.bytes t.grand_total.bytes

let seq_cell cr = function
  | Session.Whole_file -> cr.whole_file
  | Session.Other_sequential -> cr.other_sequential
  | Session.Random -> cr.random

let seq_pct_accesses cr seq = pct (seq_cell cr seq).accesses cr.total.accesses

let seq_pct_bytes cr seq = pct (seq_cell cr seq).bytes cr.total.bytes
