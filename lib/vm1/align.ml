type pin_geom = {
  ax : int;
  x_lo : int;
  x_hi : int;
  y : int;
}

let of_bbox lx ly hx hy =
  { ax = (lx + hx) / 2; x_lo = lx; x_hi = hx; y = (ly + hy) / 2 }

let of_placed (p : Place.Placement.t) (pr : Netlist.Design.pin_ref) =
  Place.Placement.pin_box_at p pr ~x:p.xs.(pr.inst) ~y:p.ys.(pr.inst)
    ~orient:p.orients.(pr.inst) of_bbox

let of_candidate (p : Place.Placement.t) pr ~site ~row ~orient =
  Place.Placement.pin_box_at p pr ~x:(site * p.tech.Pdk.Tech.site_width)
    ~y:(row * p.tech.Pdk.Tech.row_height) ~orient of_bbox

(* The predicates on raw coordinates are the definitions; the record
   forms below read their fields into them. The window solver's packed
   tables hold coordinates, not records, and call these directly. *)
let aligned_xy (params : Params.t) (tech : Pdk.Tech.t) ~ax1 ~y1 ~ax2 ~y2 =
  ax1 = ax2
  && y1 <> y2
  && abs (y1 - y2) <= params.closed_gamma * tech.row_height

let overlap_xy (params : Params.t) (tech : Pdk.Tech.t) ~lo1 ~hi1 ~y1 ~lo2 ~hi2
    ~y2 =
  let ov = (if hi1 < hi2 then hi1 else hi2) - if lo1 > lo2 then lo1 else lo2 in
  if ov >= params.delta && abs (y1 - y2) <= params.gamma * tech.row_height
  then ov - params.delta
  else -1

(* alpha d_pq + epsilon o_pq, from [overlap_xy]'s result *)
let[@inline] open_gain (params : Params.t) o =
  if o >= 0 then params.alpha +. (params.epsilon *. float_of_int o) else 0.0

(* alpha d_pq *)
let[@inline] closed_gain (params : Params.t) d = if d then params.alpha else 0.0

let aligned params tech a b =
  aligned_xy params tech ~ax1:a.ax ~y1:a.y ~ax2:b.ax ~y2:b.y

let overlap params tech a b =
  let o =
    overlap_xy params tech ~lo1:a.x_lo ~hi1:a.x_hi ~y1:a.y ~lo2:b.x_lo
      ~hi2:b.x_hi ~y2:b.y
  in
  if o >= 0 then (true, o) else (false, 0)

let pair_gain params (tech : Pdk.Tech.t) a b =
  match tech.arch with
  | Pdk.Cell_arch.Open_m1 ->
    open_gain params
      (overlap_xy params tech ~lo1:a.x_lo ~hi1:a.x_hi ~y1:a.y ~lo2:b.x_lo
         ~hi2:b.x_hi ~y2:b.y)
  | Pdk.Cell_arch.Closed_m1 | Pdk.Cell_arch.Conventional12 ->
    closed_gain params
      (aligned_xy params tech ~ax1:a.ax ~y1:a.y ~ax2:b.ax ~y2:b.y)
