module Rng = Dfs_util.Rng

type window = { down_at : float; up_at : float }

type t = {
  profile : Profile.t;
  horizon : float;
  servers : window array array;
  parts : window array;
}

(* Alternating exponential up/down times.  A repair time is clamped to at
   least one second so a window is never degenerate. *)
let gen_windows rng ~mtbf ~mttr ~horizon =
  if not (Float.is_finite mtbf) || mtbf <= 0.0 then [||]
  else begin
    let acc = ref [] and t = ref 0.0 in
    let continue = ref true in
    while !continue do
      let down_at = !t +. Rng.exponential rng mtbf in
      if down_at >= horizon then continue := false
      else begin
        let up_at = down_at +. Float.max 1.0 (Rng.exponential rng mttr) in
        acc := { down_at; up_at } :: !acc;
        t := up_at
      end
    done;
    Array.of_list (List.rev !acc)
  end

let generate ~(profile : Profile.t) ~n_servers ~horizon =
  (* One split per stream, in a fixed order, so adding servers never
     perturbs earlier servers' windows. *)
  let root = Rng.create ((profile.seed * 2654435761) lxor 0x5fa17) in
  let servers =
    Array.init n_servers (fun _ ->
        let rng = Rng.split root in
        gen_windows rng ~mtbf:profile.server_mttf ~mttr:profile.server_mttr
          ~horizon)
  in
  let parts =
    let rng = Rng.split root in
    gen_windows rng ~mtbf:profile.partition_mtbf ~mttr:profile.partition_mttr
      ~horizon
  in
  { profile; horizon; servers; parts }

let server_outages t i = Array.to_list t.servers.(i)

let partitions t = Array.to_list t.parts

(* Binary search for the window covering [now]: windows are sorted and
   disjoint, so find the last window with [down_at <= now]. *)
let covering windows ~now =
  let n = Array.length windows in
  if n = 0 then None
  else begin
    let lo = ref 0 and hi = ref (n - 1) and found = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      if windows.(mid).down_at <= now then begin
        found := mid;
        lo := mid + 1
      end
      else hi := mid - 1
    done;
    if !found >= 0 && now < windows.(!found).up_at then Some windows.(!found)
    else None
  end

let server_down t ~server ~now =
  if server < 0 || server >= Array.length t.servers then None
  else covering t.servers.(server) ~now

let partitioned t ~now = covering t.parts ~now

let crash_count t =
  Array.fold_left (fun acc w -> acc + Array.length w) 0 t.servers
