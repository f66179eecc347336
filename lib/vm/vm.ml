module File = Dfs_trace.Ids.File
module Process = Dfs_trace.Ids.Process

type io = {
  cached_page_read : file:File.t -> off:int -> len:int -> unit;
  backing_read : bytes:int -> unit;
  backing_write : bytes:int -> unit;
}

type config = {
  page_size : int;
  code_retention : float;
  vm_trade_idle : float;
}

let default_config =
  {
    page_size = Dfs_util.Units.block_size;
    code_retention = 1500.0;
    vm_trade_idle = 1200.0;
  }

type proc = {
  exe : File.t;
  code_pages : int;
  data_pages : int;  (* initialized data *)
  mutable heap_pages : int;  (* modified data + stack *)
  mutable swapped_pages : int;  (* heap pages currently on the backing file *)
}

type retained = { mutable pages : int; mutable last_used : float }

type t = {
  cfg : config;
  io : io;
  procs : proc Process.Tbl.t;
  retained : retained File.Tbl.t;  (* code pages of exited programs *)
}

let create io =
  {
    cfg = default_config;
    io;
    procs = Process.Tbl.create 64;
    retained = File.Tbl.create 64;
  }

let config t = t.cfg

let pages_of_bytes t bytes =
  if bytes <= 0 then 0 else (bytes + t.cfg.page_size - 1) / t.cfg.page_size

let exec t ~now ~pid ~exe ~code_bytes ~data_bytes =
  let code_pages = pages_of_bytes t code_bytes in
  let data_pages = pages_of_bytes t data_bytes in
  (* Code: free when retained from a previous run; otherwise each page is
     a fault through the file cache on the executable. *)
  let retained_pages =
    match File.Tbl.find_opt t.retained exe with
    | Some r when now -. r.last_used <= t.cfg.code_retention ->
      r.last_used <- now;
      min r.pages code_pages
    | _ -> 0
  in
  let faulted = code_pages - retained_pages in
  if faulted > 0 then
    t.io.cached_page_read ~file:exe ~off:(retained_pages * t.cfg.page_size)
      ~len:(faulted * t.cfg.page_size);
  (* Initialized data is always (re)copied from the file cache: processes
     dirty their data pages, so exited copies were discarded. *)
  if data_pages > 0 then
    t.io.cached_page_read ~file:exe ~off:code_bytes
      ~len:(data_pages * t.cfg.page_size);
  Process.Tbl.replace t.procs pid
    { exe; code_pages; data_pages; heap_pages = 0; swapped_pages = 0 }

let find t pid = Process.Tbl.find_opt t.procs pid

let grow t ~now ~pid ~heap_bytes =
  ignore now;
  match find t pid with
  | None -> ()
  | Some p -> p.heap_pages <- p.heap_pages + pages_of_bytes t heap_bytes

let dirty_pages p = p.data_pages + p.heap_pages - p.swapped_pages

let swap_out t ~now ~pid ~fraction =
  ignore now;
  match find t pid with
  | None -> ()
  | Some p ->
    let candidates = max 0 (dirty_pages p) in
    let n = int_of_float (Float.round (float_of_int candidates *. fraction)) in
    let n = min candidates n in
    if n > 0 then begin
      t.io.backing_write ~bytes:(n * t.cfg.page_size);
      p.swapped_pages <- p.swapped_pages + n
    end

let swap_in t ~now ~pid ~fraction =
  ignore now;
  match find t pid with
  | None -> ()
  | Some p ->
    let n =
      min p.swapped_pages
        (int_of_float (Float.round (float_of_int p.swapped_pages *. fraction)))
    in
    if n > 0 then begin
      t.io.backing_read ~bytes:(n * t.cfg.page_size);
      p.swapped_pages <- p.swapped_pages - n
    end

let exit t ~now ~pid =
  match find t pid with
  | None -> ()
  | Some p ->
    Process.Tbl.remove t.procs pid;
    (* Dirty data/stack pages are discarded; code pages join the retained
       pool so a re-run of the same program faults them back for free. *)
    (match File.Tbl.find_opt t.retained p.exe with
    | Some r ->
      r.pages <- max r.pages p.code_pages;
      r.last_used <- now
    | None ->
      File.Tbl.replace t.retained p.exe
        { pages = p.code_pages; last_used = now })

let demand_pages t ~now =
  let live =
    Process.Tbl.fold
      (fun _ p acc ->
        acc + p.code_pages + p.data_pages + p.heap_pages - p.swapped_pages)
      t.procs 0
  in
  let retained =
    File.Tbl.fold
      (fun _ r acc ->
        (* Retained pages still idle less than the trade threshold are
           claimed by VM; older ones are up for grabs by the file cache. *)
        if now -. r.last_used <= t.cfg.vm_trade_idle then acc + r.pages
        else acc)
      t.retained 0
  in
  live + retained

let reclaim_retained t ~now ~max_pages =
  let reclaimable =
    File.Tbl.fold
      (fun file r acc ->
        if now -. r.last_used > t.cfg.vm_trade_idle then (file, r) :: acc
        else acc)
      t.retained []
    |> List.sort (fun (_, a) (_, b) -> Float.compare a.last_used b.last_used)
  in
  let freed = ref 0 in
  List.iter
    (fun (file, r) ->
      if !freed < max_pages then begin
        let take = min r.pages (max_pages - !freed) in
        r.pages <- r.pages - take;
        freed := !freed + take;
        if r.pages = 0 then File.Tbl.remove t.retained file
      end)
    reclaimable;
  !freed

let live_processes t = Process.Tbl.length t.procs

let processes t =
  Process.Tbl.fold
    (fun pid p acc ->
      let resident =
        p.code_pages + p.data_pages + p.heap_pages - p.swapped_pages
      in
      (pid, resident) :: acc)
    t.procs []
  |> List.sort (fun (_, a) (_, b) -> Int.compare b a)

let retained_pages t =
  File.Tbl.fold (fun _ r acc -> acc + r.pages) t.retained 0

(* Post-simulation memory release: forget the process table and the
   retained-code-page map.  No further exec/page activity may follow. *)
let drop_state t =
  Process.Tbl.reset t.procs;
  File.Tbl.reset t.retained
