(* Chrome trace-event JSON (the "JSON object format"): a traceEvents
   array of complete events; ts/dur are microseconds.  Reference:
   the Trace Event Format doc that Perfetto and chrome://tracing share. *)

let wall_pid = 1

let meta ~pid ?tid ~name value =
  Json.Obj
    (("ph", Json.String "M")
    :: ("pid", Json.Int pid)
    :: (match tid with Some t -> [ ("tid", Json.Int t) ] | None -> [])
    @ [ ("name", Json.String name); ("args", Json.Obj [ ("name", Json.String value) ]) ])

(* The one event builder, for spans of either clock. *)
let event ~pid ~tid (s : Profiler.span) =
  Json.Obj
    ([
       ("ph", Json.String "X");
       ("pid", Json.Int pid);
       ("tid", Json.Int tid);
       ("name", Json.String s.name);
       ("cat", Json.String s.cat);
       ("ts", Json.Float (s.t0 *. 1e6));
       ("dur", Json.Float (s.dur *. 1e6));
     ]
    @ if s.args = [] then [] else [ ("args", Json.Obj s.args) ])

(* One process: its name, its named tracks, then one event per span on
   the track [tid] picks. *)
let process put ~pid ~name ~tracks ~tid spans =
  put (meta ~pid ~name:"process_name" name);
  List.iter (fun (t, track) -> put (meta ~pid ~tid:t ~name:"thread_name" track)) tracks;
  Seq.iter (fun s -> put (event ~pid ~tid:(tid s) s)) spans

let write ?clock oc =
  let buf = Buffer.create 1024 and first = ref true in
  let put j =
    if not !first then output_char oc ',';
    first := false;
    Buffer.clear buf;
    Json.to_buffer buf j;
    Buffer.output_buffer oc buf
  in
  output_string oc "{\"traceEvents\":[";
  if clock <> Some Profiler.Sim then begin
    match Profiler.spans () with
    | [] -> ()
    | spans ->
      let domains = List.sort_uniq Int.compare (List.map (fun (s : Profiler.span) -> s.domain) spans) in
      process put ~pid:wall_pid ~name:"wall clock (profiler)"
        ~tracks:(List.map (fun d -> (d, Printf.sprintf "domain %d" d)) domains)
        ~tid:(fun (s : Profiler.span) -> s.domain)
        (List.to_seq spans)
  end;
  if clock <> Some Profiler.Wall then
    List.iteri
      (fun i (label, spans) ->
        let cats =
          List.sort String.compare
            (Seq.fold_left
               (fun acc (s : Profiler.span) -> if List.mem s.cat acc then acc else s.cat :: acc)
               [] spans)
        in
        let tids = List.mapi (fun t c -> (c, t)) cats in
        process put ~pid:(wall_pid + 1 + i) ~name:("sim time: " ^ label)
          ~tracks:(List.map (fun (c, t) -> (t, "sim:" ^ c)) tids)
          ~tid:(fun (s : Profiler.span) -> List.assoc s.cat tids)
          spans)
      (Profiler.simulations ());
  output_string oc "],\"displayTimeUnit\":\"ms\"}\n"
