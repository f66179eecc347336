module Ids = Dfs_trace.Ids
module Rng = Dfs_util.Rng
module Dist = Dfs_util.Dist
module Engine = Dfs_sim.Engine
module Cluster = Dfs_sim.Cluster

type special_user = {
  su_group : Params.group;
  su_params : Params.t;
  su_app : Apps.app;
  su_think : Dfs_util.Dist.t;
}

type spec = {
  user : Ids.User.t;
  group : Params.group;
  home : int;
  params : Params.t;
  think : Dfs_util.Dist.t;
  activity_scale : float;  (** occasional users run at a fraction of the rate *)
  fixed_app : Apps.app option;
  uses_migration : bool;
}

type t = {
  cluster : Cluster.t;
  params : Params.t;
  ns : Namespace.t;
  board : Migration.t;
  specs : spec list;
  start_hour : float;
}

let hour_of t now =
  let h = t.start_hour +. (now /. 3600.0) in
  int_of_float h mod 24

let session t (spec : spec) =
  let rng = Rng.split (Cluster.rng t.cluster) in
  let ctx =
    {
      Apps.cluster = t.cluster;
      params = spec.params;
      ns = t.ns;
      board = t.board;
      rng;
      user = spec.user;
      group = spec.group;
      home = spec.home;
      uses_migration = spec.uses_migration;
    }
  in
  let engine = Cluster.engine t.cluster in
  Engine.spawn engine (fun () ->
      (* stagger session starts so users do not tick in lockstep *)
      Engine.sleep (Rng.uniform rng 0.0 120.0);
      let home_client = Cluster.client t.cluster spec.home in
      (* The user's long-lived login session (shell, window system): it
         stays resident while the user works, gets swapped to the backing
         file when the user goes idle, and pages back in when they return
         — the paper observes that much paging traffic happens at such
         major changes of activity. *)
      let login_cred =
        Dfs_sim.Cred.make ~user:spec.user
          ~pid:(Migration.fresh_pid t.board)
          ~client:(Cluster.client_id t.cluster spec.home)
          ~migrated:false
      in
      let login_bin = Namespace.pick_binary t.ns ~rng ~name:"sh" in
      Dfs_sim.Client.exec_process home_client ~cred:login_cred
        ~exe:login_bin.exe ~code_bytes:login_bin.code_bytes
        ~data_bytes:login_bin.data_bytes;
      Dfs_sim.Client.grow_process home_client ~cred:login_cred
        ~heap_bytes:((1 + Rng.int rng 3) * 1024 * 1024);
      (* Users work in engaged bursts separated by breaks: during an
         engaged period they fire applications every think-time or so;
         breaks stretch with the day/night profile, so nights are quiet.
         Returning from a long break pages the login session back in —
         the "user returns to the workstation" paging burst of
         Section 5.3. *)
      let rec session_loop () =
        let now = Engine.now engine in
        let activity =
          spec.params.hour_activity.(hour_of t now) *. spec.activity_scale
        in
        let break_len =
          Rng.exponential rng 1500.0 /. Float.max 0.02 activity
        in
        if break_len > 600.0 then begin
          Dfs_sim.Client.swap_out_process home_client ~cred:login_cred
            ~fraction:0.55;
          Engine.sleep break_len;
          Dfs_sim.Client.swap_in_process home_client ~cred:login_cred
            ~fraction:1.0
        end
        else Engine.sleep break_len;
        let engaged_until =
          Engine.now engine +. Rng.exponential rng 3000.0
        in
        let rec burst () =
          if Engine.now engine < engaged_until then begin
            Engine.sleep (Dist.sample spec.think rng);
            let app =
              match spec.fixed_app with
              | Some a -> a
              | None ->
                Apps.pick (Params.find_group spec.params spec.group).mix
                  ctx.rng
            in
            Apps.run ctx app;
            burst ()
          end
        in
        burst ();
        session_loop ()
      in
      session_loop ())

let setup ~cluster ~params ?(start_hour = 0.0) ?(special_users = []) () =
  let rng = Rng.split (Cluster.rng cluster) in
  let ns =
    Namespace.create ~fs:(Cluster.fs cluster) ~rng ~params
      ~now:(Engine.now (Cluster.engine cluster))
      ~n_users:(params.n_regular_users + params.n_occasional_users)
  in
  let n_clients = Array.length (Cluster.clients cluster) in
  let cluster_cfg = Cluster.cfg cluster in
  let board =
    Migration.create ~n_clients ~pid_base:cluster_cfg.Cluster.pid_base ()
  in
  let mk_spec idx ~activity_scale ~params ~fixed_app ~group ~think =
    {
      (* [idx] stays local (it drives group assignment and home-client
         round-robin); only the trace-visible id gets the global base. *)
      user = Ids.User.of_int (cluster_cfg.Cluster.user_id_base + idx);
      group;
      home = idx mod n_clients;
      params;
      think;
      activity_scale;
      fixed_app;
      (* a handful of the regular users harness idle machines via
         migration (the paper saw 6-11 per trace, and only ~1 user per
         10-minute interval with active migrated work); the stride is
         coprime to the 4-cycle of group assignment so they span groups *)
      uses_migration =
        (idx mod 7 = 1 && idx < params.n_regular_users) || fixed_app <> None;
    }
  in
  let regular =
    List.init params.n_regular_users (fun i ->
        let group = Params.group_of_user params i in
        mk_spec i ~activity_scale:1.0 ~params ~fixed_app:None ~group
          ~think:(Params.find_group params group).think_time)
  in
  let occasional =
    List.init params.n_occasional_users (fun i ->
        let idx = params.n_regular_users + i in
        let group = Params.group_of_user params idx in
        mk_spec idx ~activity_scale:0.12 ~params ~fixed_app:None ~group
          ~think:(Params.find_group params group).think_time)
  in
  let special =
    List.mapi
      (fun i su ->
        let idx = params.n_regular_users + params.n_occasional_users + i in
        mk_spec idx ~activity_scale:1.0 ~params:su.su_params
          ~fixed_app:(Some su.su_app) ~group:su.su_group ~think:su.su_think)
      special_users
  in
  let specs = regular @ occasional @ special in
  let t = { cluster; params; ns; board; specs; start_hour } in
  List.iter (session t) specs;
  t

let n_users t = List.length t.specs
