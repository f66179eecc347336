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

let zero_cell = { accesses = 0; bytes = 0 }

let zero_class =
  {
    total = zero_cell;
    whole_file = zero_cell;
    other_sequential = zero_cell;
    random = zero_cell;
  }

let bump cell ~bytes = { accesses = cell.accesses + 1; bytes = cell.bytes + bytes }

let bump_class cr ~seq ~bytes =
  let total = bump cr.total ~bytes in
  match (seq : Session.sequentiality) with
  | Session.Whole_file -> { cr with total; whole_file = bump cr.whole_file ~bytes }
  | Session.Other_sequential ->
    { cr with total; other_sequential = bump cr.other_sequential ~bytes }
  | Session.Random -> { cr with total; random = bump cr.random ~bytes }

type acc = {
  mutable ro : class_report;
  mutable wo : class_report;
  mutable rw : class_report;
  mutable grand : cell;
}

let acc_create () =
  { ro = zero_class; wo = zero_class; rw = zero_class; grand = zero_cell }

let acc_add acc (a : Session.access) =
  if not a.a_is_dir then
    match Session.usage a with
    | None -> ()
    | Some u ->
      let bytes = Session.bytes a in
      let seq = Session.sequentiality a in
      acc.grand <- bump acc.grand ~bytes;
      (match u with
      | Session.Read_only -> acc.ro <- bump_class acc.ro ~seq ~bytes
      | Session.Write_only -> acc.wo <- bump_class acc.wo ~seq ~bytes
      | Session.Read_write -> acc.rw <- bump_class acc.rw ~seq ~bytes)

let acc_finish acc =
  {
    read_only = acc.ro;
    write_only = acc.wo;
    read_write = acc.rw;
    grand_total = acc.grand;
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
