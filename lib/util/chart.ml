type series = {
  s_name : string;
  s_glyph : char;
  s_points : (float * float) array;
}

let of_cdf ~name ~glyph ~xs cdf =
  {
    s_name = name;
    s_glyph = glyph;
    s_points =
      Array.map (fun x -> (x, 100.0 *. Cdf.fraction_below cdf x)) xs;
  }

let axis_value x =
  if x >= 1_048_576.0 then Printf.sprintf "%.0fM" (x /. 1_048_576.0)
  else if x >= 1024.0 then Printf.sprintf "%.0fK" (x /. 1024.0)
  else if x >= 1.0 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.2f" x

let render ~title ~x_label series_list =
  let width = 64 and height = 16 in
  let positive_xs =
    List.concat_map
      (fun s ->
        Array.to_list s.s_points
        |> List.filter_map (fun (x, _) -> if x > 0.0 then Some x else None))
      series_list
  in
  if positive_xs = [] then invalid_arg "Chart.render: no positive x values";
  let x_min = List.fold_left Float.min infinity positive_xs in
  let x_max = List.fold_left Float.max neg_infinity positive_xs in
  let x_max = if x_max <= x_min then x_min *. 10.0 else x_max in
  let log_min = log x_min and log_max = log x_max in
  let col_of_x x =
    if x <= 0.0 then 0
    else begin
      let f = (log x -. log_min) /. (log_max -. log_min) in
      min (width - 1) (max 0 (int_of_float (f *. float_of_int (width - 1))))
    end
  in
  let row_of_y y =
    (* row 0 is the top (100%) *)
    let f = y /. 100.0 in
    let r = int_of_float ((1.0 -. f) *. float_of_int (height - 1)) in
    min (height - 1) (max 0 r)
  in
  let grid = Array.make_matrix height width ' ' in
  (* light horizontal rules at 0/25/50/75/100 *)
  List.iter
    (fun y ->
      let r = row_of_y y in
      for c = 0 to width - 1 do
        grid.(r).(c) <- '.'
      done)
    [ 0.0; 25.0; 50.0; 75.0; 100.0 ];
  (* plot each series, interpolating between consecutive sample columns *)
  List.iter
    (fun s ->
      let pts =
        Array.to_list s.s_points |> List.filter (fun (x, _) -> x > 0.0)
      in
      let rec draw = function
        | (x0, y0) :: ((x1, y1) :: _ as rest) ->
          let c0 = col_of_x x0 and c1 = col_of_x x1 in
          for c = c0 to max c0 c1 do
            let f =
              if c1 = c0 then 0.0
              else float_of_int (c - c0) /. float_of_int (c1 - c0)
            in
            let y = y0 +. (f *. (y1 -. y0)) in
            grid.(row_of_y y).(c) <- s.s_glyph
          done;
          draw rest
        | [ (x0, y0) ] -> grid.(row_of_y y0).(col_of_x x0) <- s.s_glyph
        | [] -> ()
      in
      draw pts)
    series_list;
  let buf = Buffer.create ((width + 8) * (height + 4)) in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  Array.iteri
    (fun r row ->
      let label =
        if r = row_of_y 100.0 then "100%"
        else if r = row_of_y 50.0 then " 50%"
        else if r = row_of_y 0.0 then "  0%"
        else "    "
      in
      Buffer.add_string buf label;
      Buffer.add_string buf " |";
      Array.iter (Buffer.add_char buf) row;
      Buffer.add_char buf '\n')
    grid;
  Buffer.add_string buf "     +";
  Buffer.add_string buf (String.make width '-');
  Buffer.add_char buf '\n';
  (* x-axis ticks: min, middle decade, max *)
  let tick_line = Bytes.make (width + 7) ' ' in
  let put_tick x =
    let label = axis_value x in
    let c = min (width - String.length label) (col_of_x x) in
    Bytes.blit_string label 0 tick_line (6 + c) (String.length label)
  in
  put_tick x_min;
  put_tick (exp ((log_min +. log_max) /. 2.0));
  put_tick x_max;
  Buffer.add_string buf (Bytes.to_string tick_line);
  Buffer.add_char buf '\n';
  Buffer.add_string buf ("     " ^ x_label ^ " (log scale)   ");
  List.iter
    (fun s -> Buffer.add_string buf (Printf.sprintf "[%c] %s  " s.s_glyph s.s_name))
    series_list;
  Buffer.add_char buf '\n';
  Buffer.contents buf
