module Record = Dfs_trace.Record
module Ids = Dfs_trace.Ids
module B = Dfs_trace.Record_batch
module Cdf = Dfs_util.Cdf

type t = {
  by_files : Cdf.t;
  by_bytes : Cdf.t;
  deaths_aged : int;
  deaths_unknown : int;
}

let short_life = 30.0

let table_xs =
  [| 1.0; 3.0; 10.0; short_life; 100.0; 300.0; 1000.0; 3600.0; 21600.0; 86400.0 |]

let chart_xs = Cdf.log_xs ~lo:1.0 ~hi:10_000_000.0 ~per_decade:3

let points = Cdf.union [ table_xs; chart_xs ]

type write_state = { mutable oldest : float; mutable newest : float }

(* Number of interpolation points when spreading a dead file's bytes over
   the oldest..newest age range. *)
let byte_samples = 8

(* What aging needs of a write-bearing close and of a delete or
   truncate. *)
type event =
  | Write of { file : Ids.File.t; opened : float; closed : float; whole : bool }
  | Death of { file : Ids.File.t; time : float; size : int }

let time = function Write w -> w.closed | Death d -> d.time

let by_time a b = Float.compare (time a) (time b)

(* [writes] and [deaths] in time order, writes first on ties: the order
   the stable sort of [writes @ deaths] gives when both lists are in
   time order. *)
let rec merge apply writes deaths =
  match (writes, deaths) with
  | w :: ws, d :: _ when by_time w d <= 0 ->
    apply w;
    merge apply ws deaths
  | _, d :: ds ->
    apply d;
    merge apply writes ds
  | rest, [] -> List.iter apply rest

let rec in_order = function
  | a :: (b :: _ as rest) -> by_time a b <= 0 && in_order rest
  | [] | [ _ ] -> true

(* [writes] are the write-bearing closes in close order, [deaths] the
   deletes/truncates in record order, each list newest first. *)
type acc = { mutable writes_rev : event list; mutable deaths_rev : event list }

let acc_create () = { writes_rev = []; deaths_rev = [] }

let acc_access acc (a : Session.access) =
  if (not a.a_is_dir) && a.a_bytes_written > 0 then
    let whole = a.a_bytes_written >= a.a_size_close && a.a_size_close > 0 in
    acc.writes_rev <-
      Write
        { file = a.a_file; opened = a.a_open_time; closed = a.a_close_time; whole }
      :: acc.writes_rev

(* Deletes of regular files and truncations are deaths. *)
let acc_record acc batch i =
  (* the tag read is bounds-checked and validates [i]; the remaining
     reads reuse the same index through the unsafe mirror *)
  let tag = B.tag batch i in
  if
    (tag = B.tag_delete && not (B.Unsafe.is_dir batch i))
    || tag = B.tag_truncate
  then
    let file = B.Unsafe.file_id batch i and time = B.Unsafe.time batch i in
    acc.deaths_rev <-
      Death { file; time; size = B.Unsafe.a batch i } :: acc.deaths_rev

(* The events interleave by time, writes first on ties: a merge when
   both lists arrived in time order, else one stable sort, which orders
   them the same. *)
let acc_finish acc =
  let by_files = Cdf.create points in
  let by_bytes = Cdf.create points in
  let aged = ref 0 and unknown = ref 0 in
  let states : write_state Ids.File.Tbl.t = Ids.File.Tbl.create 1024 in
  let apply = function
    | Write w -> (
      match Ids.File.Tbl.find_opt states w.file with
      | Some st ->
        if w.whole then st.oldest <- w.opened;
        st.newest <- w.closed
      | None ->
        Ids.File.Tbl.replace states w.file
          { oldest = w.opened; newest = w.closed })
    | Death { file; time = now; size } -> (
      match Ids.File.Tbl.find_opt states file with
      | None -> incr unknown
      | Some st ->
        incr aged;
        let age_oldest = now -. st.oldest and age_newest = now -. st.newest in
        Cdf.add by_files ((age_oldest +. age_newest) /. 2.0);
        if size > 0 then begin
          (* sequential-write assumption: byte at fractional offset f was
             written at oldest + f * (newest - oldest) *)
          let w = float_of_int size /. float_of_int byte_samples in
          for i = 0 to byte_samples - 1 do
            let f = (float_of_int i +. 0.5) /. float_of_int byte_samples in
            let written = st.oldest +. (f *. (st.newest -. st.oldest)) in
            Cdf.add_weighted by_bytes ~weight:w (now -. written)
          done
        end;
        Ids.File.Tbl.remove states file)
  in
  let writes = List.rev acc.writes_rev and deaths = List.rev acc.deaths_rev in
  if in_order writes && in_order deaths then merge apply writes deaths
  else List.iter apply (List.sort by_time (writes @ deaths));
  { by_files; by_bytes; deaths_aged = !aged; deaths_unknown = !unknown }

let analyze batch =
  let acc = acc_create () in
  Session.sweep batch ~on_record:(acc_record acc) ~on_access:(acc_access acc);
  acc_finish acc

let fraction_files_under t secs = Cdf.fraction_below t.by_files secs

let fraction_bytes_under t secs = Cdf.fraction_below t.by_bytes secs
