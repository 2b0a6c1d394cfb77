let label_width rows =
  List.fold_left (fun w (label, _) -> max w (String.length label)) 10 rows

let print_header ~title ~header ~width =
  Printf.printf "\n== %s ==\n" title;
  Printf.printf "%-*s" width "";
  List.iter (fun h -> Printf.printf " %12s" h) header;
  print_newline ()

(* A NaN cell is a degraded cell (its job timed out, crashed or was
   quarantined): render an explicit marker instead of "nan" so figures
   from a faulted run are readable, and keep it out of aggregates. *)

let print_table ~title ~header rows =
  let width = label_width rows in
  print_header ~title ~header ~width;
  List.iter
    (fun (label, values) ->
      Printf.printf "%-*s" width label;
      List.iter
        (fun v ->
          if Float.is_nan v then Printf.printf " %12s" "--"
          else Printf.printf " %12.2f" v)
        values;
      print_newline ())
    rows

let print_percent_table ~title ~header rows =
  let width = label_width rows in
  print_header ~title ~header ~width;
  List.iter
    (fun (label, values) ->
      Printf.printf "%-*s" width label;
      List.iter
        (fun v ->
          if Float.is_nan v then Printf.printf " %12s" "--"
          else Printf.printf " %+11.1f%%" (100. *. v))
        values;
      print_newline ())
    rows

let print_bars ~title rows =
  Printf.printf "\n== %s ==\n" title;
  let width = label_width rows in
  let maximum =
    List.fold_left
      (fun m (_, v) -> if Float.is_nan v then m else Float.max m v)
      0. rows
  in
  List.iter
    (fun (label, v) ->
      if Float.is_nan v then Printf.printf "%-*s %10s |\n" width label "--"
      else
        let bar_len =
          if maximum <= 0. then 0 else int_of_float (40. *. v /. maximum)
        in
        Printf.printf "%-*s %10.2f |%s\n" width label v
          (String.make (max 0 bar_len) '#'))
    rows

let print_series ~title series =
  Printf.printf "\n== %s ==\n" title;
  if Array.length series = 0 then print_endline "(empty series)"
  else begin
    let ys = Array.map snd series in
    let lo = Array.fold_left Float.min ys.(0) ys in
    let hi = Array.fold_left Float.max ys.(0) ys in
    let glyphs = [| '_'; '.'; '-'; '='; '*'; '#' |] in
    let glyph y =
      if hi <= lo then glyphs.(0)
      else
        let level = int_of_float ((y -. lo) /. (hi -. lo) *. 5.99) in
        glyphs.(max 0 (min 5 level))
    in
    Printf.printf "min %.2f  max %.2f  (%d points)\n" lo hi (Array.length series);
    Array.iter (fun (_, y) -> print_char (glyph y)) series;
    print_newline ()
  end

let windowed_mean ~window series =
  if window <= 0 then invalid_arg "Report.windowed_mean: window must be positive";
  let n = Array.length series in
  Array.init ((n + window - 1) / window) (fun i ->
      let lo = i * window in
      let hi = min n (lo + window) in
      let sum = ref 0 in
      for c = lo to hi - 1 do
        sum := !sum + series.(c)
      done;
      (lo, float_of_int !sum /. float_of_int (hi - lo)))

let mean values =
  match values with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. values /. float_of_int (List.length values)
