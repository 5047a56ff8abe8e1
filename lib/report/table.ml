let render ~header ~rows =
  let all = header :: rows in
  let ncols =
    List.fold_left (fun acc row -> max acc (List.length row)) 0 all
  in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell -> widths.(i) <- max widths.(i) (String.length cell))
        row)
    all;
  let buf = Buffer.create 1024 in
  let emit row =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf cell;
        Buffer.add_string buf (String.make (widths.(i) - String.length cell) ' '))
      row;
    Buffer.add_char buf '\n'
  in
  emit header;
  emit
    (List.init (List.length header) (fun i -> String.make widths.(i) '-'));
  List.iter emit rows;
  Buffer.contents buf

let fi = string_of_int
let f1 = Printf.sprintf "%.1f"
let f2 = Printf.sprintf "%.2f"
let f3 = Printf.sprintf "%.3f"

let pct a b =
  if abs_float a < 1e-12 then "(0.0)"
  else Printf.sprintf "(%+.1f)" ((b -. a) /. a *. 100.0)
