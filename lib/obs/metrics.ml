(* Log-scale histogram layout: [buckets_per_decade] buckets per decade
   over [1e-12, 1e12).  Relative bucket width is 10^(1/20) - 1 ~ 12%, so
   quantiles read from bucket midpoints are within ~6% of exact — plenty
   for latencies and sizes, and observation is just a [log10] plus an
   array increment. *)
let buckets_per_decade = 20

let lo_decade = -12

let hi_decade = 12

let n_buckets = (hi_decade - lo_decade) * buckets_per_decade

let bucket_index v =
  let i =
    int_of_float (Float.floor (Float.log10 v *. float_of_int buckets_per_decade))
    - (lo_decade * buckets_per_decade)
  in
  if i < 0 then 0 else if i >= n_buckets then n_buckets - 1 else i

let bucket_mid i =
  Float.pow 10.0
    ((float_of_int (i + (lo_decade * buckets_per_decade)) +. 0.5)
    /. float_of_int buckets_per_decade)

module Acc = struct
  type t = {
    buckets : int array;
    mutable zeros : int;  (* observations <= 0 *)
    mutable count : int;
    mutable sum : float;
    mutable min : float;
    mutable max : float;
  }

  let create () =
    {
      buckets = Array.make n_buckets 0;
      zeros = 0;
      count = 0;
      sum = 0.0;
      min = infinity;
      max = neg_infinity;
    }

  let observe a v =
    a.count <- a.count + 1;
    a.sum <- a.sum +. v;
    if v < a.min then a.min <- v;
    if v > a.max then a.max <- v;
    if v > 0.0 then begin
      let i = bucket_index v in
      a.buckets.(i) <- a.buckets.(i) + 1
    end
    else a.zeros <- a.zeros + 1

  let count a = a.count

  let sum a = a.sum

  let merge ~into a =
    Array.iteri (fun i n -> into.buckets.(i) <- into.buckets.(i) + n) a.buckets;
    into.zeros <- into.zeros + a.zeros;
    into.count <- into.count + a.count;
    into.sum <- into.sum +. a.sum;
    if a.min < into.min then into.min <- a.min;
    if a.max > into.max then into.max <- a.max

  (* An empty accumulator reads 0 throughout. *)
  let mean a = if a.count = 0 then 0.0 else a.sum /. float_of_int a.count

  let min a = if a.count = 0 then 0.0 else a.min

  let max a = if a.count = 0 then 0.0 else a.max

  let quantile a p =
    if a.count = 0 then 0.0
    else begin
      let p = Float.max 0.0 (Float.min 1.0 p) in
      let target = p *. float_of_int a.count in
      if float_of_int a.zeros >= target then 0.0
      else begin
        let seen = ref (float_of_int a.zeros) in
        let result = ref a.max in
        (try
           for i = 0 to n_buckets - 1 do
             seen := !seen +. float_of_int a.buckets.(i);
             if !seen >= target then begin
               result := bucket_mid i;
               raise Exit
             end
           done
         with Exit -> ());
        (* never report outside the observed range *)
        Float.max a.min (Float.min a.max !result)
      end
    end
end

(* No simulated hot path writes the registry: the models count in their
   own fields and accumulators and publish once when a run ends.  What is
   left (publishes, trace I/O counters, phase and pool gauges) is rare,
   so a counter is one atomic and a histogram one accumulator under its
   mutex.  A gauge set is a single float store and the last writer wins;
   every gauge is written from one domain or has a per-run name. *)

type counter = int Atomic.t

type gauge = { mutable value : float }

type histogram = { h_lock : Mutex.t; mutable h_acc : Acc.t }

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type t = { tbl : (string, metric) Hashtbl.t; lock : Mutex.t }

let create () = { tbl = Hashtbl.create 64; lock = Mutex.create () }

let default = create ()

(* Registration is rare (module init, phase boundaries) but may happen
   from worker domains, so it serializes on the registry lock. *)
let register registry name kind make cast =
  Mutex.protect registry.lock (fun () ->
      let m =
        match Hashtbl.find_opt registry.tbl name with
        | Some m -> m
        | None ->
          let m = make () in
          Hashtbl.replace registry.tbl name m;
          m
      in
      match cast m with
      | Some v -> v
      | None ->
        invalid_arg
          (Printf.sprintf "Dfs_obs.Metrics: %S already registered as a non-%s"
             name kind))

let counter ?(registry = default) name =
  register registry name "counter"
    (fun () -> Counter (Atomic.make 0))
    (function Counter c -> Some c | _ -> None)

let gauge ?(registry = default) name =
  register registry name "gauge"
    (fun () -> Gauge { value = 0.0 })
    (function Gauge g -> Some g | _ -> None)

let histogram ?(registry = default) name =
  register registry name "histogram"
    (fun () -> Histogram { h_lock = Mutex.create (); h_acc = Acc.create () })
    (function Histogram h -> Some h | _ -> None)

let incr = Atomic.incr

let add c n = ignore (Atomic.fetch_and_add c n)

let value = Atomic.get

let set g v = g.value <- v

let gauge_value g = g.value

let with_acc h f = Mutex.protect h.h_lock (fun () -> f h.h_acc)

let observe h v = with_acc h (fun a -> Acc.observe a v)

let merge h acc = with_acc h (fun into -> Acc.merge ~into acc)

let quantile h p = with_acc h (fun a -> Acc.quantile a p)

(* One locked read serves every requested quantile — the bulk accessor
   for report tooling that reads p50/p90/p99/p999 off the same state. *)
let quantiles h ps = with_acc h (fun a -> List.map (Acc.quantile a) ps)

let hist_count h = with_acc h Acc.count

let hist_sum h = with_acc h (fun a -> a.sum)

let hist_min h = with_acc h Acc.min

let hist_max h = with_acc h Acc.max

let reset ?(registry = default) () =
  Mutex.protect registry.lock (fun () ->
      Hashtbl.iter
        (fun _ -> function
          | Counter c -> Atomic.set c 0
          | Gauge g -> g.value <- 0.0
          | Histogram h -> Mutex.protect h.h_lock (fun () -> h.h_acc <- Acc.create ()))
        registry.tbl)

(* Every registered metric, sorted by name. *)
let sorted registry =
  Mutex.protect registry.lock (fun () ->
      Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry.tbl [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let names ?(registry = default) () = List.map fst (sorted registry)

let find name =
  Mutex.protect default.lock (fun () -> Hashtbl.find_opt default.tbl name)

let metric_json = function
  | Counter c -> Json.Int (value c)
  | Gauge g -> Json.Float g.value
  | Histogram h ->
    with_acc h (fun a ->
        let q name p = (name, Json.Float (Acc.quantile a p)) in
        Json.Obj
          [
            ("count", Json.Int a.count);
            ("sum", Json.Float a.sum);
            ("mean", Json.Float (Acc.mean a));
            ("min", Json.Float (Acc.min a));
            ("max", Json.Float (Acc.max a));
            q "p50" 0.50;
            q "p90" 0.90;
            q "p99" 0.99;
            q "p999" 0.999;
          ])

let to_json ?(registry = default) () =
  Json.Obj (List.map (fun (name, m) -> (name, metric_json m)) (sorted registry))

let render_text ?(registry = default) () =
  String.concat ""
    (List.map
       (fun (name, m) ->
         match m with
         | Counter c -> Printf.sprintf "%-44s %d\n" name (value c)
         | Gauge g -> Printf.sprintf "%-44s %.6g\n" name g.value
         | Histogram h ->
           with_acc h (fun a ->
               Printf.sprintf
                 "%-44s count %d  mean %.4g  p50 %.4g  p90 %.4g  p99 %.4g  max %.4g\n"
                 name a.count (Acc.mean a) (Acc.quantile a 0.50) (Acc.quantile a 0.90)
                 (Acc.quantile a 0.99) (Acc.max a)))
       (sorted registry))
