type group = Os_research | Architecture | Vlsi_parallel | Misc

let all_groups = [ Os_research; Architecture; Vlsi_parallel; Misc ]

type app_mix = {
  edit : float;
  compile : float;
  pmake : float;
  mail : float;
  doc : float;
  shell : float;
  big_sim : float;
}

type group_params = {
  mix : app_mix;
  think_time : Dfs_util.Dist.t;
  big_input_size : Dfs_util.Dist.t;
  big_output_size : Dfs_util.Dist.t;
}

type t = {
  groups : (group * group_params) list;
  n_regular_users : int;
  n_occasional_users : int;
  source_size : Dfs_util.Dist.t;
  header_size : Dfs_util.Dist.t;
  object_size : Dfs_util.Dist.t;
  exe_size : Dfs_util.Dist.t;
  tmp_size : Dfs_util.Dist.t;
  sources_per_user : int;
  headers_shared : int;
  bins_shared : int;
  compile_sources : Dfs_util.Dist.t;
  compile_headers : Dfs_util.Dist.t;
  pmake_width : Dfs_util.Dist.t;
  link_probability : float;
  partial_read_probability : float;
  random_access_probability : float;
  edit_save_probability : float;
  process_rate : float;
  exe_code_fraction : float;
  exe_data_fraction : float;
  heap_dist : Dfs_util.Dist.t;
  hour_activity : float array;
  migration_enabled : bool;
}

open Dfs_util.Dist

let kb x = 1024.0 *. x

let mb x = 1048576.0 *. x

(* Log-normal around a median: mu is the log of the median. *)
let around median sigma lo hi =
  Clamped (Lognormal (log median, sigma), lo, hi)

let default_mix = function
  | Os_research ->
    {
      edit = 0.21;
      compile = 0.28;
      pmake = 0.12;
      mail = 0.10;
      doc = 0.03;
      shell = 0.22;
      big_sim = 0.04;
    }
  | Architecture ->
    {
      edit = 0.15;
      compile = 0.18;
      pmake = 0.08;
      mail = 0.08;
      doc = 0.03;
      shell = 0.18;
      big_sim = 0.24;
    }
  | Vlsi_parallel ->
    {
      edit = 0.17;
      compile = 0.20;
      pmake = 0.10;
      mail = 0.08;
      doc = 0.04;
      shell = 0.18;
      big_sim = 0.19;
    }
  | Misc ->
    {
      edit = 0.26;
      compile = 0.06;
      pmake = 0.02;
      mail = 0.25;
      doc = 0.15;
      shell = 0.26;
      big_sim = 0.00;
    }

let default_group g =
  {
    mix = default_mix g;
    think_time = Exponential 80.0;
    big_input_size =
      (match g with
      | Architecture | Vlsi_parallel ->
        Clamped (Pareto (1.45, mb 1.0), mb 1.0, mb 10.0)
      | Os_research | Misc -> around (mb 1.0) 0.7 (kb 128.0) (mb 6.0));
    big_output_size = around (mb 0.25) 0.8 (kb 64.0) (mb 3.0);
  }

(* Diurnal profile: quiet nights, ramp at 9, peak 10:00-18:00, evening tail. *)
let default_hours =
  [|
    0.05; 0.04; 0.03; 0.03; 0.03; 0.05; 0.08; 0.15; 0.45; 0.8; 1.0; 1.0;
    0.85; 0.95; 1.0; 1.0; 0.95; 0.85; 0.6; 0.45; 0.35; 0.25; 0.15; 0.08;
  |]

let default =
  {
    groups = List.map (fun g -> (g, default_group g)) all_groups;
    n_regular_users = 30;
    n_occasional_users = 40;
    source_size = around (kb 6.0) 1.1 128.0 (kb 200.0);
    header_size = around (kb 1.5) 0.9 64.0 (kb 50.0);
    object_size = around (kb 5.0) 1.0 512.0 (kb 400.0);
    exe_size =
      Mixture
        [
          (around (kb 150.0) 0.9 (kb 20.0) (mb 1.0), 0.92);
          (* kernel-sized binaries: the 2-10 MB images Section 4.2 mentions *)
          (around (mb 3.0) 0.6 (mb 1.5) (mb 10.0), 0.08);
        ];
    tmp_size = around (kb 2.0) 1.0 128.0 (kb 100.0);
    sources_per_user = 40;
    headers_shared = 120;
    bins_shared = 60;
    compile_sources = Uniform (2.0, 6.0);
    compile_headers = Uniform (6.0, 14.0);
    pmake_width = Uniform (4.0, 12.0);
    link_probability = 0.20;
    partial_read_probability = 0.22;
    random_access_probability = 0.05;
    edit_save_probability = 0.6;
    process_rate = 2.0e6;
    exe_code_fraction = 0.7;
    exe_data_fraction = 0.12;
    heap_dist = around (kb 700.0) 1.0 (kb 64.0) (mb 8.0);
    hour_activity = default_hours;
    migration_enabled = true;
  }

let group_of_user _t idx =
  match idx mod 4 with
  | 0 -> Os_research
  | 1 -> Architecture
  | 2 -> Vlsi_parallel
  | _ -> Misc

let find_group t g = List.assoc g t.groups
