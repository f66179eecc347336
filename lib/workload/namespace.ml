module User = Dfs_trace.Ids.User
module Fs = Dfs_sim.Fs_state
module Dist = Dfs_util.Dist
module Rng = Dfs_util.Rng

type binary = { exe : Fs.file_info; code_bytes : int; data_bytes : int }

type user_files = {
  uid : User.t;
  home_dir : Fs.file_info;
  mutable sources : Fs.file_info array;
  mutable objects : Fs.file_info option array;
  mailbox : Fs.file_info;
  mutable big_inputs : Fs.file_info list;
  mutable exe_out : Fs.file_info option;
  mutable doc_out : Fs.file_info option;
  mutable sim_log : Fs.file_info option;
  mutable stale_outputs : Fs.file_info list;
}

type t = {
  fs : Fs.t;
  rng : Rng.t;
  params : Params.t;
  bins : binary array;
  named_bins : (string, binary) Hashtbl.t;
  headers : Fs.file_info array;
  shared_dirs : Fs.file_info array;
  status_files : (Params.group * Fs.file_info) list;
  group_logs : (Params.group * Fs.file_info) list;
  group_sources : (Params.group * Fs.file_info array) list;
  users : user_files User.Tbl.t;
  mutable created_at : float;
}

let dir_entry_bytes = 32

let make_binary t ~now =
  let size = Dist.sample_int t.params.exe_size t.rng in
  let exe = Fs.create_file t.fs ~now ~size () in
  {
    exe;
    code_bytes =
      int_of_float (float_of_int size *. t.params.exe_code_fraction);
    data_bytes =
      int_of_float (float_of_int size *. t.params.exe_data_fraction);
  }

let create ~fs ~rng ~params ~now ~n_users =
  let t =
    {
      fs;
      rng;
      params;
      bins = [||];
      named_bins = Hashtbl.create 16;
      headers = [||];
      shared_dirs = [||];
      status_files = [];
      group_logs = [];
      group_sources = [];
      users = User.Tbl.create (max 16 n_users);
      created_at = now;
    }
  in
  let bins = Array.init params.bins_shared (fun _ -> make_binary t ~now) in
  let headers =
    Array.init params.headers_shared (fun _ ->
        Fs.create_file fs ~now
          ~size:(Dist.sample_int params.header_size rng)
          ())
  in
  let shared_dirs =
    Array.init 8 (fun _ ->
        Fs.create_file fs ~now ~dir:true
          ~size:((20 + Rng.int rng 200) * dir_entry_bytes)
          ())
  in
  let status_files =
    List.map
      (fun g -> (g, Fs.create_file fs ~now ~size:(2 * 1024) ()))
      Params.all_groups
  in
  let group_logs =
    List.map
      (fun g -> (g, Fs.create_file fs ~now ~size:(256 * 1024) ()))
      Params.all_groups
  in
  (* each group's shared project tree *)
  let group_sources =
    List.map
      (fun g ->
        ( g,
          Array.init 24 (fun _ ->
              Fs.create_file fs ~now
                ~size:(Dist.sample_int params.source_size rng)
                ()) ))
      Params.all_groups
  in
  { t with bins; headers; shared_dirs; status_files; group_logs; group_sources }

let user_files t uid =
  match User.Tbl.find_opt t.users uid with
  | Some u -> u
  | None ->
    let now = t.created_at in
    let n = t.params.sources_per_user in
    let u =
      {
        uid;
        home_dir =
          Fs.create_file t.fs ~now ~dir:true
            ~size:((n + 10) * dir_entry_bytes)
            ();
        sources =
          Array.init n (fun _ ->
              Fs.create_file t.fs ~now
                ~size:(Dist.sample_int t.params.source_size t.rng)
                ());
        objects = Array.make n None;
        mailbox = Fs.create_file t.fs ~now ~size:(24 * 1024) ();
        big_inputs = [];
        exe_out = None;
        doc_out = None;
        sim_log = None;
        stale_outputs = [];
      }
    in
    User.Tbl.replace t.users uid u;
    u

(* The everyday programs: modest, stable sizes, so their code pages stay
   resident (Sprite keeps code pages after exit) and repeated execs cost
   mostly initialized-data faults.  The huge kernel-sized images stay in
   the shared pool and are read as files, not exec'd. *)
let named_sizes =
  [
    ("editor", 180 * 1024);
    ("cc", 450 * 1024);
    ("sh", 64 * 1024);
    ("mail", 120 * 1024);
    ("troff", 250 * 1024);
    ("pmake", 160 * 1024);
    ("simulator", 1024 * 1024);
  ]

let pick_binary t ~rng ~name =
  match Hashtbl.find_opt t.named_bins name with
  | Some b -> b
  | None ->
    let b =
      match List.assoc_opt name named_sizes with
      | Some size ->
        let exe = Fs.create_file t.fs ~now:t.created_at ~size () in
        {
          exe;
          code_bytes =
            int_of_float (float_of_int size *. t.params.exe_code_fraction);
          data_bytes =
            int_of_float (float_of_int size *. t.params.exe_data_fraction);
        }
      | None -> t.bins.(Rng.int rng (Array.length t.bins))
    in
    Hashtbl.replace t.named_bins name b;
    b

let random_binary t ~rng = t.bins.(Rng.int rng (Array.length t.bins))

let pick_header t ~rng = t.headers.(Rng.int rng (Array.length t.headers))

let pick_source _t ~rng u =
  let n = Array.length u.sources in
  Rng.zipf rng ~n ~s:0.9 - 1

let shared_dir t ~rng = t.shared_dirs.(Rng.int rng (Array.length t.shared_dirs))

let group_status_file t g = List.assoc g t.status_files

let group_log t g = List.assoc g t.group_logs

let pick_group_source t ~rng g =
  let arr = List.assoc g t.group_sources in
  arr.(Rng.zipf rng ~n:(Array.length arr) ~s:0.8 - 1)

let new_file t ~now ~size = Fs.create_file t.fs ~now ~size ()
