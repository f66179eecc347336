type op = Read of { file : int; block : int } | Write of { file : int; block : int }

type params = {
  seek_time : float;
  transfer_time : float;
  segment_blocks : int;
  cleaning_overhead : float;
}

let default_params =
  {
    seek_time = 0.020;
    transfer_time = 0.003;
    segment_blocks = 128;
    cleaning_overhead = 0.3;
  }

type result = {
  ops : int;
  reads : int;
  writes : int;
  read_time : float;
  write_time : float;
  total_time : float;
}

let finish ~ops ~reads ~writes ~read_time ~write_time =
  { ops; reads; writes; read_time; write_time; total_time = read_time +. write_time }

(* Update in place: an operation is sequential (transfer only) when it hits
   the block right after the disk head's last position within the same
   file; anything else seeks. *)
let in_place ops =
  let params = default_params in
  let reads = ref 0 and writes = ref 0 in
  let read_time = ref 0.0 and write_time = ref 0.0 in
  let head = ref None in
  let service ~file ~block acc =
    let sequential =
      match !head with
      | Some (f, b) -> f = file && block = b + 1
      | None -> false
    in
    head := Some (file, block);
    acc := !acc +. params.transfer_time
           +. (if sequential then 0.0 else params.seek_time)
  in
  List.iter
    (fun op ->
      match op with
      | Read { file; block } ->
        incr reads;
        service ~file ~block read_time
      | Write { file; block } ->
        incr writes;
        service ~file ~block write_time)
    ops;
  finish ~ops:(List.length ops) ~reads:!reads ~writes:!writes
    ~read_time:!read_time ~write_time:!write_time

(* Log structure: writes fill an in-memory segment; a full segment costs
   one seek plus a whole-segment transfer, inflated by the cleaner.  Reads
   behave like in-place reads of cold data (the interesting term is the
   write path; LFS's read locality is workload-dependent and we charge it
   conservatively). *)
let log_structured ?(params = default_params) ops =
  let reads = ref 0 and writes = ref 0 in
  let read_time = ref 0.0 and write_time = ref 0.0 in
  let head = ref None in
  let pending = ref 0 in
  let flush_segment blocks =
    if blocks > 0 then begin
      let t =
        (params.seek_time +. (float_of_int blocks *. params.transfer_time))
        *. (1.0 +. params.cleaning_overhead)
      in
      write_time := !write_time +. t;
      (* the head ends up at the log tail, away from any file's data *)
      head := None
    end
  in
  List.iter
    (fun op ->
      match op with
      | Read { file; block } ->
        incr reads;
        let sequential =
          match !head with
          | Some (f, b) -> f = file && block = b + 1
          | None -> false
        in
        head := Some (file, block);
        read_time :=
          !read_time +. params.transfer_time
          +. (if sequential then 0.0 else params.seek_time)
      | Write _ ->
        incr writes;
        incr pending;
        if !pending >= params.segment_blocks then begin
          flush_segment !pending;
          pending := 0
        end)
    ops;
  flush_segment !pending;
  finish ~ops:(List.length ops) ~reads:!reads ~writes:!writes
    ~read_time:!read_time ~write_time:!write_time

let block_size = Dfs_util.Units.block_size

(* inode tables and directories live away from the data; model them as a
   shared pseudo-file with scattered blocks *)
let metadata_file = -1

let workload_of_accesses ?(read_miss_ratio = 0.4) ?(metadata = true) ~seed
    accesses =
  let rng = Dfs_util.Rng.create seed in
  let ops = ref [] in
  List.iter
    (fun (a : Dfs_analysis.Session.access) ->
      if not a.a_is_dir then begin
        let file = Dfs_trace.Ids.File.to_int a.a_file in
        let read_blocks = a.a_bytes_read / block_size in
        for b = 0 to read_blocks - 1 do
          if Dfs_util.Rng.bernoulli rng read_miss_ratio then
            ops := Read { file; block = b } :: !ops
        done;
        (* ~90% of written bytes reach the server (Table 6) *)
        let write_blocks = a.a_bytes_written / block_size in
        for b = 0 to write_blocks - 1 do
          if Dfs_util.Rng.bernoulli rng 0.9 then
            ops := Write { file; block = b } :: !ops
        done;
        (* each modified file costs an inode write and a directory write,
           scattered over the metadata region — FFS's seek-bound term *)
        if metadata && a.a_bytes_written > 0 then begin
          ops :=
            Write { file = metadata_file; block = Dfs_util.Rng.int rng 100000 }
            :: Write { file = metadata_file; block = Dfs_util.Rng.int rng 100000 }
            :: !ops
        end
      end)
    accesses;
  List.rev !ops

let crossover_table accesses ~seed =
  List.map
    (fun miss ->
      let ops = workload_of_accesses ~read_miss_ratio:miss ~seed accesses in
      let ip = in_place ops in
      let lg = log_structured ops in
      (miss, ip.total_time, lg.total_time))
    [ 0.4; 0.2; 0.1; 0.05; 0.02 ]
