include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash = Hashtbl.hash
end)

let pair hi lo = (hi lsl 31) lor lo

module Handles (H : sig
  type t

  val pid : t -> int
end) =
struct
  type table = H.t list t

  let create n : table = create n

  let rec first pid = function
    | [] -> None
    | h :: rest -> if H.pid h = pid then Some h else first pid rest

  let rec without h = function
    | [] -> []
    | h' :: rest -> if h' == h then rest else h' :: without h rest

  let open_under tbl key = Option.value ~default:[] (find_opt tbl key)

  let push tbl key h = replace tbl key (h :: open_under tbl key)

  let top tbl key ~pid = first pid (open_under tbl key)

  let pop tbl key ~pid =
    let hs = open_under tbl key in
    match first pid hs with
    | None -> None
    | Some h as found ->
      (match without h hs with
      | [] -> remove tbl key
      | rest -> replace tbl key rest);
      found
end
