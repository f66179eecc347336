(* The JSON printer's oracle: a strict parser, so tests can read back
   what [Dfs_obs.Json] writes — metric snapshots, Chrome traces, fsck
   verdicts — and check it parses to what was meant.  Nothing in the
   program reads JSON, so the parser lives with the tests, the way the
   merge and cache reference models do.  Tests bind it as [Json]: it
   includes the printer. *)

include Dfs_obs.Json

exception Parse_error of string

(* The parser recurses per nesting level; bounding the depth keeps
   adversarial input (e.g. ten thousand '[') from overflowing the stack
   and turns it into a regular Parse_error instead. *)
let max_depth = 512

let parse_exn s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected '%s'" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents buf
      else if c = '\\' then begin
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          let hex4 () =
            if !pos + 4 > n then fail "truncated \\u escape";
            let hex = String.sub s !pos 4 in
            pos := !pos + 4;
            try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape"
          in
          let code = hex4 () in
          (* A high surrogate followed by an escaped low surrogate is one
             supplementary-plane character; anything else (including a
             lone surrogate) is encoded as the code point itself. *)
          let code =
            if
              code >= 0xD800 && code <= 0xDBFF
              && !pos + 2 <= n
              && s.[!pos] = '\\'
              && s.[!pos + 1] = 'u'
            then begin
              let save = !pos in
              pos := !pos + 2;
              let lo = hex4 () in
              if lo >= 0xDC00 && lo <= 0xDFFF then
                0x10000 + ((code - 0xD800) lsl 10) + (lo - 0xDC00)
              else begin
                pos := save;
                code
              end
            end
            else code
          in
          (* Non-ASCII escapes round-trip as UTF-8. *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
          else if code < 0x10000 then begin
            Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
            Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
        | _ -> fail "bad escape");
        loop ()
      end
      else begin
        Buffer.add_char buf c;
        loop ()
      end
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    if
      String.contains tok '.' || String.contains tok 'e'
      || String.contains tok 'E'
    then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail "bad number")
  in
  let rec parse_value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        List (items [])
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          (k, v)
        in
        let rec fields acc =
          let f = field () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields (f :: acc)
          | Some '}' ->
            advance ();
            List.rev (f :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (fields [])
      end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
  in
  let v = parse_value 0 in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse s =
  match parse_exn s with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* -- accessors ------------------------------------------------------------- *)

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_int_opt = function Int i -> Some i | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
