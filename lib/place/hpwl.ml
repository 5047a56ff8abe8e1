let net_bbox (p : Placement.t) n =
  let net = p.design.Netlist.Design.nets.(n) in
  Array.fold_left
    (fun acc pr ->
      let pos = Placement.pin_pos p pr in
      Geom.Rect.union acc (Geom.Rect.of_points pos pos))
    Geom.Rect.empty net.pins

(* [Geom.Rect.half_perimeter (net_bbox p n)], without building boxes *)
let net p n =
  let pins = p.Placement.design.Netlist.Design.nets.(n).pins in
  if Array.length pins < 2 then 0
  else begin
    let x0 = ref max_int and x1 = ref min_int in
    let y0 = ref max_int and y1 = ref min_int in
    for q = 0 to Array.length pins - 1 do
      let pos = Placement.pin_pos p pins.(q) in
      if pos.x < !x0 then x0 := pos.x;
      if pos.x > !x1 then x1 := pos.x;
      if pos.y < !y0 then y0 := pos.y;
      if pos.y > !y1 then y1 := pos.y
    done;
    !x1 - !x0 + (!y1 - !y0)
  end

let total p =
  List.fold_left
    (fun acc n -> acc + net p n)
    0
    (Netlist.Design.signal_nets p.Placement.design)

let total_um p = float_of_int (total p) /. 1000.0
