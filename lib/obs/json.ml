type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* -- printing ------------------------------------------------------------- *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Digits straight into the buffer, where [string_of_int] goes through
   printf; negative numbers are rare enough to take that path. *)
let rec add_int buf i =
  if i < 0 then Buffer.add_string buf (string_of_int i)
  else begin
    if i >= 10 then add_int buf (i / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 + (i mod 10)))
  end

let add_float buf f =
  if Float.is_nan f then Buffer.add_string buf "null"
  else if f = Float.infinity then Buffer.add_string buf "1e308"
  else if f = Float.neg_infinity then Buffer.add_string buf "-1e308"
  else if Float.is_integer f && Float.abs f < 1e12 && not (Float.sign_bit f && f = 0.0)
  then begin
    add_int buf (int_of_float f);
    Buffer.add_string buf ".0"
  end
  else begin
    (* [string_of_float] is [%.12g] plus a trailing '.' on a token that
       would read as an int, which JSON spells ".0" *)
    let s = string_of_float f in
    Buffer.add_string buf s;
    if s.[String.length s - 1] = '.' then Buffer.add_char buf '0'
  end

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f -> add_float buf f
  | String s -> escape_to buf s
  | List l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        to_buffer buf v)
      l;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_to buf k;
        Buffer.add_char buf ':';
        to_buffer buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

(* Indented printing for files meant to be read by people. *)
let rec add_pretty buf indent = function
  | List (_ :: _ as l) ->
    let pad = String.make indent ' ' in
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf pad;
        Buffer.add_string buf "  ";
        add_pretty buf (indent + 2) v)
      l;
    Buffer.add_char buf '\n';
    Buffer.add_string buf pad;
    Buffer.add_char buf ']'
  | Obj (_ :: _ as fields) ->
    let pad = String.make indent ' ' in
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf pad;
        Buffer.add_string buf "  ";
        escape_to buf k;
        Buffer.add_string buf ": ";
        add_pretty buf (indent + 2) v)
      fields;
    Buffer.add_char buf '\n';
    Buffer.add_string buf pad;
    Buffer.add_char buf '}'
  | v -> to_buffer buf v

let to_pretty_string v =
  let buf = Buffer.create 1024 in
  add_pretty buf 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* -- accessors ------------------------------------------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None
