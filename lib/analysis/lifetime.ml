module Record = Dfs_trace.Record
module Ids = Dfs_trace.Ids
module B = Dfs_trace.Record_batch

type t = {
  by_files : Dfs_util.Cdf.t;
  by_bytes : Dfs_util.Cdf.t;
  deaths_aged : int;
  deaths_unknown : int;
}

type write_state = { mutable oldest : float; mutable newest : float }

(* Number of interpolation points when spreading a dead file's bytes over
   the oldest..newest age range. *)
let byte_samples = 8

(* [writes] are write-bearing closes in close-time order, [deaths] the
   deletes/truncates in record order; the stable sort interleaves them by
   time with writes winning ties, exactly as the single-pass list
   construction always has. *)
let of_events ~writes ~deaths =
  let by_files = Dfs_util.Cdf.create () in
  let by_bytes = Dfs_util.Cdf.create () in
  let aged = ref 0 and unknown = ref 0 in
  let states : write_state Ids.File.Tbl.t = Ids.File.Tbl.create 1024 in
  let events =
    List.sort (fun (a, _) (b, _) -> Float.compare a b) (writes @ deaths)
  in
  let record_death ~now ~file ~size =
    match Ids.File.Tbl.find_opt states file with
    | None -> incr unknown
    | Some st ->
      incr aged;
      let age_oldest = now -. st.oldest and age_newest = now -. st.newest in
      Dfs_util.Cdf.add by_files ((age_oldest +. age_newest) /. 2.0);
      if size > 0 then begin
        (* sequential-write assumption: byte at fractional offset f was
           written at oldest + f * (newest - oldest) *)
        let w = float_of_int size /. float_of_int byte_samples in
        for i = 0 to byte_samples - 1 do
          let f = (float_of_int i +. 0.5) /. float_of_int byte_samples in
          let written = st.oldest +. (f *. (st.newest -. st.oldest)) in
          Dfs_util.Cdf.add by_bytes ~weight:w (now -. written)
        done
      end;
      Ids.File.Tbl.remove states file
  in
  List.iter
    (fun (time, ev) ->
      match ev with
      | `Write (a : Session.access) -> (
        let covered_whole =
          a.a_bytes_written >= a.a_size_close && a.a_size_close > 0
        in
        match Ids.File.Tbl.find_opt states a.a_file with
        | Some st ->
          if covered_whole then begin
            st.oldest <- a.a_open_time;
            st.newest <- a.a_close_time
          end
          else st.newest <- a.a_close_time
        | None ->
          Ids.File.Tbl.replace states a.a_file
            { oldest = a.a_open_time; newest = a.a_close_time })
      | `Death (file, size) -> record_death ~now:time ~file ~size)
    events;
  {
    by_files;
    by_bytes;
    deaths_aged = !aged;
    deaths_unknown = !unknown;
  }

type event = [ `Write of Session.access | `Death of Ids.File.t * int ]

type acc = {
  mutable writes_rev : (float * event) list;
  mutable deaths_rev : (float * event) list;
}

let acc_create () = { writes_rev = []; deaths_rev = [] }

let acc_access acc (a : Session.access) =
  if (not a.a_is_dir) && a.a_bytes_written > 0 then
    acc.writes_rev <- (a.a_close_time, `Write a) :: acc.writes_rev

(* The death a record contributes, if any: deletes of regular files and
   truncations. Shared with the sharded fused pass, which extracts
   deaths per shard and feeds them back through [acc_death] in global
   record order. *)
let death_of_record batch i =
  (* the tag read is bounds-checked and validates [i]; the remaining
     reads reuse the same index through the unsafe mirror *)
  let tag = B.tag batch i in
  if
    (tag = B.tag_delete && not (B.Unsafe.is_dir batch i))
    || tag = B.tag_truncate
  then
    Some (B.Unsafe.time batch i, B.Unsafe.file_id batch i, B.Unsafe.a batch i)
  else None

let acc_death acc ~time ~file ~size =
  acc.deaths_rev <- (time, `Death (file, size)) :: acc.deaths_rev

let acc_record acc batch i =
  match death_of_record batch i with
  | Some (time, file, size) -> acc_death acc ~time ~file ~size
  | None -> ()

let acc_finish acc =
  of_events ~writes:(List.rev acc.writes_rev) ~deaths:(List.rev acc.deaths_rev)

let analyze batch =
  let acc = acc_create () in
  Session.sweep batch ~on_record:(acc_record acc) ~on_access:(acc_access acc);
  acc_finish acc

let default_xs = Dfs_util.Cdf.log_xs ~lo:1.0 ~hi:10_000_000.0 ~per_decade:3

let fraction_files_under t secs = Dfs_util.Cdf.fraction_below t.by_files secs

let fraction_bytes_under t secs = Dfs_util.Cdf.fraction_below t.by_bytes secs
