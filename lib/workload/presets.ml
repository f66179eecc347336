module Cluster = Dfs_sim.Cluster
module Dist = Dfs_util.Dist

type preset = {
  name : string;
  seed : int;
  duration : float;
  start_hour : float;
  cluster_config : Cluster.config;
  params : Params.t;
  special_users : Driver.special_user list;
}

let mb x = int_of_float (1048576.0 *. x)

(* The simulator user of traces 3-4: input files averaging 20 Mbytes,
   re-read run after run. *)
let big_input_user params =
  let gp = Params.find_group params Params.Architecture in
  let gp' =
    {
      gp with
      Params.big_input_size =
        Dist.Clamped (Dist.Lognormal (log (float_of_int (mb 20.0)), 0.2),
                      float_of_int (mb 12.0), float_of_int (mb 28.0));
      big_output_size = Dist.Constant (float_of_int (mb 0.5));
    }
  in
  {
    Driver.su_group = Params.Architecture;
    su_params =
      {
        params with
        Params.groups =
          (Params.Architecture, gp')
          :: List.remove_assoc Params.Architecture params.Params.groups;
      };
    su_app = Apps.Big_sim;
    su_think = Dist.Exponential 90.0;
  }

(* The cache-simulation user of traces 3-4: produces a 10 Mbyte output
   that is post-processed and deleted, over and over. *)
let big_output_user params =
  let gp = Params.find_group params Params.Vlsi_parallel in
  let gp' =
    {
      gp with
      Params.big_input_size = Dist.Constant (float_of_int (mb 2.0));
      big_output_size = Dist.Constant (float_of_int (mb 10.0));
    }
  in
  {
    Driver.su_group = Params.Vlsi_parallel;
    su_params =
      {
        params with
        Params.groups =
          (Params.Vlsi_parallel, gp')
          :: List.remove_assoc Params.Vlsi_parallel params.Params.groups;
      };
    su_app = Apps.Big_sim;
    su_think = Dist.Exponential 120.0;
  }

let base_preset n =
  let params = Params.default in
  let cluster_config =
    { Cluster.default_config with seed = 1000 + (37 * n) }
  in
  {
    name = Printf.sprintf "trace%d" n;
    seed = cluster_config.seed;
    duration = 86400.0;
    start_hour = 0.0;
    cluster_config;
    params;
    special_users = [];
  }

let trace n =
  if n < 1 || n > 8 then invalid_arg "Presets.trace: expected 1-8";
  let p = base_preset n in
  if n = 3 || n = 4 then
    { p with special_users = [ big_input_user p.params; big_output_user p.params ] }
  else p

let all () = List.init 8 (fun i -> trace (i + 1))

let with_faults p profile =
  { p with cluster_config = { p.cluster_config with fault_profile = profile } }

let scaled p ~factor =
  if not (factor > 0.0 && factor <= 1.0) then
    invalid_arg
      (Printf.sprintf "Presets.scaled: factor %g outside (0, 1]" factor);
  {
    p with
    duration = p.duration *. factor;
    start_hour = (if factor < 0.99 then 9.5 else p.start_hour);
  }

let run p =
  let cluster = Cluster.create p.cluster_config in
  let driver =
    Driver.setup ~cluster ~params:p.params ~start_hour:p.start_hour
      ~special_users:p.special_users ()
  in
  (* Single-partition conservative-PDES execution: windows only slice
     the engine's own event order, and every run reports barrier/window
     telemetry. *)
  Sharded.drive cluster ~until:p.duration;
  (cluster, driver)
