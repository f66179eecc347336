type clock = Wall | Sim

type span = {
  clock : clock;
  name : string;
  cat : string;
  domain : int;
  depth : int;
  t0 : float;
  dur : float;
  args : (string * Json.t) list;
}

(* Guards the lists of wall shards and sim streams, which readers walk. *)
let lock = Mutex.create ()

(* -- wall clock ---------------------------------------------------------------- *)

(* Each domain owns one shard, found through a domain-local slot, and
   appends to it without synchronization.  Shards of finished domains
   stay on the list, so worker profiles survive the worker. *)
type shard = {
  sh_domain : int;
  mutable sh_spans : span list;  (* newest first *)
  mutable sh_stored : int;
  mutable sh_added : int;
  mutable sh_depth : int;
}

(* Per-domain retention bound: the instrumentation is coarse (phases,
   pool tasks, experiments), so this is a runaway guard, not a ring. *)
let max_spans_per_domain = 65536

let enabled = ref false

let epoch = ref 0.0

let shards : shard list ref = ref []

let slot : shard option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let shard () =
  match Domain.DLS.get slot with
  | Some s -> s
  | None ->
    let s =
      {
        sh_domain = (Domain.self () :> int);
        sh_spans = [];
        sh_stored = 0;
        sh_added = 0;
        sh_depth = 0;
      }
    in
    Mutex.protect lock (fun () -> shards := s :: !shards);
    Domain.DLS.set slot (Some s);
    s

let active () = !enabled

let enable () =
  Mutex.protect lock (fun () ->
      List.iter
        (fun s ->
          s.sh_spans <- [];
          s.sh_stored <- 0;
          s.sh_added <- 0;
          s.sh_depth <- 0)
        !shards);
  epoch := Unix.gettimeofday ();
  enabled := true

let disable () = enabled := false

let elapsed () = if !epoch = 0.0 then 0.0 else Unix.gettimeofday () -. !epoch

let record sh sp =
  sh.sh_added <- sh.sh_added + 1;
  if sh.sh_stored < max_spans_per_domain then begin
    sh.sh_spans <- sp :: sh.sh_spans;
    sh.sh_stored <- sh.sh_stored + 1
  end

let span ?(cat = "phase") name f =
  if not !enabled then f ()
  else begin
    let sh = shard () in
    let depth = sh.sh_depth in
    sh.sh_depth <- depth + 1;
    let g0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let dur = Unix.gettimeofday () -. t0 in
        let g1 = Gc.quick_stat () in
        sh.sh_depth <- depth;
        record sh
          {
            clock = Wall;
            name;
            cat;
            domain = sh.sh_domain;
            depth;
            t0 = t0 -. !epoch;
            dur;
            args =
              [
                ("gc_minor", Json.Int (g1.Gc.minor_collections - g0.minor_collections));
                ("gc_major", Json.Int (g1.Gc.major_collections - g0.major_collections));
                ("gc_promoted_words", Json.Float (g1.Gc.promoted_words -. g0.promoted_words));
                ("gc_minor_words", Json.Float (g1.Gc.minor_words -. g0.minor_words));
              ];
          })
      f
  end

let all_shards () = Mutex.protect lock (fun () -> !shards)

let spans () =
  let all = List.fold_left (fun acc s -> List.rev_append s.sh_spans acc) [] (all_shards ()) in
  List.sort
    (fun a b ->
      match Float.compare a.t0 b.t0 with
      | 0 -> (
        match Int.compare a.domain b.domain with
        | 0 -> Int.compare a.depth b.depth
        | c -> c)
      | c -> c)
    all

(* -- simulated time ------------------------------------------------------------ *)

(* One stream per simulation, written only by the domain running that
   simulation's engine at the time (window barriers order the hand-offs
   between PDES workers), so appends need no lock.  It keeps a prefix,
   not a ring: the first spans of a run are a pure function of the run,
   while which spans a ring keeps is not once runs share it.  Spans are
   stored by column with unboxed times, so a kept span costs five words
   plus its attribute list. *)
type stream = {
  st_label : string;
  st_now : unit -> float;
  mutable st_cat : string array;
  mutable st_name : string array;
  mutable st_t0 : Float.Array.t;
  mutable st_dur : Float.Array.t;
  mutable st_args : (string * Json.t) list array;
  mutable st_stored : int;
  mutable st_added : int;
}

let sim_capacity = 100_000

let sim_enabled = ref false

let streams : stream list ref = ref []  (* newest first *)

let installed : stream option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let m_added = Metrics.counter "obs.trace.added"

let m_dropped = Metrics.counter "obs.trace.dropped"

let enable_sim () =
  Mutex.protect lock (fun () -> streams := []);
  sim_enabled := true

let disable_sim () = sim_enabled := false

let stream ~label ~now =
  if not !sim_enabled then None
  else begin
    let none = Float.Array.create 0 in
    let s =
      { st_label = label; st_now = now; st_cat = [||]; st_name = [||]; st_t0 = none;
        st_dur = none; st_args = [||]; st_stored = 0; st_added = 0 }
    in
    Mutex.protect lock (fun () -> streams := s :: !streams);
    Some s
  end

let recording s f =
  let saved = Domain.DLS.get installed in
  Domain.DLS.set installed (Some s);
  Fun.protect ~finally:(fun () -> Domain.DLS.set installed saved) f

let admit () =
  !sim_enabled
  &&
  match Domain.DLS.get installed with
  | None -> false
  | Some s ->
    s.st_added <- s.st_added + 1;
    s.st_stored < sim_capacity

let publish s =
  Metrics.add m_added s.st_added;
  Metrics.add m_dropped (s.st_added - s.st_stored)

let now () = match Domain.DLS.get installed with Some s -> s.st_now () | None -> 0.0

(* The columns double up to [sim_capacity]. *)
let grow s =
  let more = min sim_capacity (max 1024 (2 * s.st_stored)) - s.st_stored in
  s.st_cat <- Array.append s.st_cat (Array.make more "");
  s.st_name <- Array.append s.st_name (Array.make more "");
  s.st_args <- Array.append s.st_args (Array.make more []);
  s.st_t0 <- Float.Array.append s.st_t0 (Float.Array.make more 0.0);
  s.st_dur <- Float.Array.append s.st_dur (Float.Array.make more 0.0)

let emit ~cat ~name ~t0 ~dur args =
  match Domain.DLS.get installed with
  | Some s when s.st_stored < sim_capacity ->
    if s.st_stored = Array.length s.st_cat then grow s;
    let i = s.st_stored in
    s.st_cat.(i) <- cat;
    s.st_name.(i) <- name;
    Float.Array.set s.st_t0 i t0;
    Float.Array.set s.st_dur i dur;
    s.st_args.(i) <- args;
    s.st_stored <- i + 1
  | Some _ | None -> ()

let all_streams () = Mutex.protect lock (fun () -> !streams)

let simulations () =
  List.map
    (fun s ->
      ( s.st_label,
        Seq.init s.st_stored (fun i ->
            { clock = Sim; name = s.st_name.(i); cat = s.st_cat.(i); domain = 0; depth = 0;
              t0 = Float.Array.get s.st_t0 i; dur = Float.Array.get s.st_dur i;
              args = s.st_args.(i) }) ))
    (List.stable_sort (fun a b -> String.compare a.st_label b.st_label) (List.rev (all_streams ())))

(* -- both clocks ---------------------------------------------------------------- *)

let count f = function
  | Wall -> List.fold_left (fun acc s -> acc + f s.sh_added s.sh_stored) 0 (all_shards ())
  | Sim -> List.fold_left (fun acc s -> acc + f s.st_added s.st_stored) 0 (all_streams ())

let added = count (fun added _ -> added)

let dropped = count (fun added stored -> added - stored)
