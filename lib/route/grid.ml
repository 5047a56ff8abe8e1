type t = {
  placement : Place.Placement.t;
  nx : int;
  ny : int;
  nl : int;
  pitch : int;
  edges : int array;
  (* pin-access index: built once at of_placement time, replacing the
     per-call full-grid scan (kept below as [pin_access_scan]) *)
  pin_base : int array;
  mutable pin_access_off : int array;
  mutable pin_access_nodes : int array;
  (* edges with usage > 1, kept by commit/uncommit *)
  mutable overflow_edges : int;
}

let free = -1
let blocked = -2
let num_layers = 6

(* A node's edge word, from the low bit up: its wire edge's usage, its
   via edge's usage, then its wire edge's owner + 2 (0 blocked, 1 free,
   net + 2 owned) in the remaining high bits. *)
let usage_bits = 16
let usage_mask = (1 lsl usage_bits) - 1
let via_shift = usage_bits
let owner_shift = 2 * usage_bits
let owner_max = max_int lsr owner_shift

let wire_owner g n = (g.edges.(n) lsr owner_shift) - 2
let wire_usage g n = g.edges.(n) land usage_mask
let via_usage g n = (g.edges.(n) lsr via_shift) land usage_mask

let set_owner g n owner =
  g.edges.(n) <-
    (g.edges.(n) land ((1 lsl owner_shift) - 1))
    lor ((owner + 2) lsl owner_shift)

let node g ~layer ~i ~j = (((layer - 1) * g.ny) + j) * g.nx + i
let i_of_node g n = n mod g.nx
let j_of_node g n = n / g.nx mod g.ny
let layer_of_node g n = (n / (g.nx * g.ny)) + 1
let node_count g = g.nl * g.nx * g.ny
let track_x g i = (i * g.pitch) + (g.pitch / 2)
let track_y g j = (j * g.pitch) + (g.pitch / 2)

let clamp lo hi v = max lo (min hi v)

let x_to_track g x = clamp 0 (g.nx - 1) (x / g.pitch)
let y_to_track g y = clamp 0 (g.ny - 1) (y / g.pitch)
let is_vertical_layer l = l land 1 = 1

let has_wire_edge g n =
  let l = layer_of_node g n in
  if is_vertical_layer l then j_of_node g n < g.ny - 1
  else i_of_node g n < g.nx - 1

let wire_dest g n =
  let l = layer_of_node g n in
  if is_vertical_layer l then n + g.nx else n + 1

let has_via_edge g n = layer_of_node g n < g.nl
let via_dest g n = n + (g.nx * g.ny)

(* A wire edge is contaminated by a pin shape when the shape strictly
   overlaps the edge's span: another net running through would short with
   the pin metal. *)
let install_m1_shape g ~net (r : Geom.Rect.t) =
  let i_lo = max 0 ((r.lx - (g.pitch / 2) + g.pitch - 1) / g.pitch) in
  let rec find_tracks i acc =
    if i >= g.nx || track_x g i > r.hx then List.rev acc
    else find_tracks (i + 1) (i :: acc)
  in
  let tracks = find_tracks (max 0 i_lo) [] in
  List.iter
    (fun i ->
      for j = max 0 (y_to_track g r.ly - 1) to min (g.ny - 2) (y_to_track g r.hy + 1) do
        let ya = track_y g j and yb = track_y g (j + 1) in
        if max ya r.ly < min yb r.hy then begin
          let n = node g ~layer:1 ~i ~j in
          let owner = wire_owner g n in
          if owner = free then set_owner g n net
          else if owner <> net then set_owner g n blocked
        end
      done)
    tracks

(* Conventional 12-track: horizontal M1 power rails at every row boundary
   block the M1 edges crossing them. *)
let install_m1_rails g =
  let p = g.placement in
  let rh = p.Place.Placement.tech.Pdk.Tech.row_height in
  for r = 0 to p.Place.Placement.num_rows do
    let y = r * rh in
    for i = 0 to g.nx - 1 do
      for j = max 0 (y_to_track g y - 2) to min (g.ny - 2) (y_to_track g y + 1) do
        let ya = track_y g j and yb = track_y g (j + 1) in
        if ya < y && y <= yb then
          set_owner g (node g ~layer:1 ~i ~j) blocked
      done
    done
  done

(* 7.5-track ClosedM1/OpenM1 cells draw power from M2 rails running along
   every placement-row boundary (the paper's Fig. 1b); the M2 track nearest
   each boundary is lost to routing. *)
let install_m2_rails g =
  let p = g.placement in
  let rh = p.Place.Placement.tech.Pdk.Tech.row_height in
  for r = 0 to p.Place.Placement.num_rows do
    let y = r * rh in
    let j = y_to_track g y in
    (* pick the track whose centre is nearest the boundary *)
    let j =
      if j + 1 < g.ny && abs (track_y g (j + 1) - y) < abs (track_y g j - y)
      then j + 1
      else j
    in
    for i = 0 to g.nx - 2 do
      set_owner g (node g ~layer:2 ~i ~j) blocked
    done
  done

(* Power-distribution stripes on the upper layers: every [period]-th
   vertical M5 track and horizontal M6 track carries power straps. *)
let install_pdn_stripes g =
  let period = 8 in
  if g.nl >= 5 then
    for i = 0 to g.nx - 1 do
      if i mod period = 0 then
        for j = 0 to g.ny - 2 do
          set_owner g (node g ~layer:5 ~i ~j) blocked
        done
    done;
  if g.nl >= 6 then
    for j = 0 to g.ny - 1 do
      if j mod period = 0 then
        for i = 0 to g.nx - 2 do
          set_owner g (node g ~layer:6 ~i ~j) blocked
        done
    done

(* --- pin-access ----------------------------------------------------- *)

(* Reference implementation: full track scan per shape. Superseded by the
   precomputed index below; kept as the oracle the property tests compare
   the index against. *)
let pin_access_scan g (pr : Netlist.Design.pin_ref) =
  let p = g.placement in
  let shapes = Place.Placement.pin_shapes p pr in
  let nodes = ref [] in
  let add n = if not (List.mem n !nodes) then nodes := n :: !nodes in
  List.iter
    (fun (layer, (r : Geom.Rect.t)) ->
      match layer with
      | Pdk.Layer.M1 ->
        for i = 0 to g.nx - 1 do
          let x = track_x g i in
          if r.lx <= x && x <= r.hx then
            for j = 0 to g.ny - 1 do
              let y = track_y g j in
              if r.ly <= y && y <= r.hy then add (node g ~layer:1 ~i ~j)
            done
        done
      | Pdk.Layer.M0 ->
        let j = y_to_track g ((r.ly + r.hy) / 2) in
        for i = 0 to g.nx - 1 do
          let x = track_x g i in
          if r.lx <= x && x <= r.hx then add (node g ~layer:1 ~i ~j)
        done
      | Pdk.Layer.M2 | Pdk.Layer.M3 | Pdk.Layer.M4 -> ())
    shapes;
  if !nodes = [] then begin
    (* degenerate pin: fall back to the node nearest the pin centre *)
    let c = Place.Placement.pin_pos p pr in
    add
      (node g ~layer:1 ~i:(x_to_track g c.Geom.Point.x)
         ~j:(y_to_track g c.Geom.Point.y))
  end;
  !nodes

(* Track indices i with lo <= track_x(i) <= hi, by direct arithmetic on
   the pitch; returns an empty range (lo_i > hi_i) when no track fits.
   Works identically for y/tracks since both pitches agree. *)
let track_range g ~count lo hi =
  let half = g.pitch / 2 in
  let v = lo - half in
  let lo_i = if v <= 0 then 0 else (v + g.pitch - 1) / g.pitch in
  let w = hi - half in
  let hi_i = if w < 0 then -1 else min (count - 1) (w / g.pitch) in
  (lo_i, hi_i)

(* Arithmetic twin of [pin_access_scan]: same discovery order (i
   ascending, then j), same dedup, same degenerate fallback — only the
   O(nx*ny) track scan is replaced by track-range arithmetic. *)
let pin_access_compute g (pr : Netlist.Design.pin_ref) =
  let p = g.placement in
  let shapes = Place.Placement.pin_shapes p pr in
  let nodes = ref [] in
  let add n = if not (List.mem n !nodes) then nodes := n :: !nodes in
  List.iter
    (fun (layer, (r : Geom.Rect.t)) ->
      match layer with
      | Pdk.Layer.M1 ->
        let i_lo, i_hi = track_range g ~count:g.nx r.lx r.hx in
        let j_lo, j_hi = track_range g ~count:g.ny r.ly r.hy in
        for i = i_lo to i_hi do
          for j = j_lo to j_hi do
            add (node g ~layer:1 ~i ~j)
          done
        done
      | Pdk.Layer.M0 ->
        let j = y_to_track g ((r.ly + r.hy) / 2) in
        let i_lo, i_hi = track_range g ~count:g.nx r.lx r.hx in
        for i = i_lo to i_hi do
          add (node g ~layer:1 ~i ~j)
        done
      | Pdk.Layer.M2 | Pdk.Layer.M3 | Pdk.Layer.M4 -> ())
    shapes;
  if !nodes = [] then begin
    let c = Place.Placement.pin_pos p pr in
    add
      (node g ~layer:1 ~i:(x_to_track g c.Geom.Point.x)
         ~j:(y_to_track g c.Geom.Point.y))
  end;
  !nodes

let pin_index g (pr : Netlist.Design.pin_ref) =
  g.pin_base.(pr.Netlist.Design.inst) + pr.Netlist.Design.pin

let build_pin_index g =
  let design = g.placement.Place.Placement.design in
  let instances = design.Netlist.Design.instances in
  let total =
    Array.fold_left
      (fun acc (inst : Netlist.Design.instance) ->
        acc + List.length inst.master.Pdk.Stdcell.pins)
      0 instances
  in
  let off = Array.make (total + 1) 0 in
  let nodes = ref (Array.make (max 16 total) 0) in
  let fill = ref 0 in
  let push n =
    if !fill = Array.length !nodes then begin
      let a = Array.make (2 * !fill) 0 in
      Array.blit !nodes 0 a 0 !fill;
      nodes := a
    end;
    !nodes.(!fill) <- n;
    incr fill
  in
  Array.iteri
    (fun i (inst : Netlist.Design.instance) ->
      List.iteri
        (fun k (_ : Pdk.Stdcell.pin) ->
          let pi = g.pin_base.(i) + k in
          off.(pi) <- !fill;
          (* [pin_access_compute] prepends, so reverse back to discovery
             order for the flat store *)
          List.iter push
            (List.rev (pin_access_compute g { Netlist.Design.inst = i; pin = k })))
        inst.master.Pdk.Stdcell.pins)
    instances;
  off.(total) <- !fill;
  g.pin_access_off <- off;
  g.pin_access_nodes <- Array.sub !nodes 0 !fill

let c_pin_access_hits = Obs.counter "route.pin_access_hits"

let pin_access g pr =
  Obs.Counter.incr c_pin_access_hits;
  let pi = pin_index g pr in
  let acc = ref [] in
  (* prepend in discovery order = the scan's reversed-discovery list *)
  for k = g.pin_access_off.(pi) to g.pin_access_off.(pi + 1) - 1 do
    acc := g.pin_access_nodes.(k) :: !acc
  done;
  !acc

let pin_access_iter g pr f =
  Obs.Counter.incr c_pin_access_hits;
  let pi = pin_index g pr in
  for k = g.pin_access_off.(pi) to g.pin_access_off.(pi + 1) - 1 do
    f g.pin_access_nodes.(k)
  done

let of_placement ?(layers = num_layers) (p : Place.Placement.t) =
  if layers < 2 || layers > num_layers then
    invalid_arg "Grid.of_placement: layers must be in 2..6";
  let tech = p.Place.Placement.tech in
  let pitch = tech.Pdk.Tech.m2_pitch in
  let nx = max 2 (Geom.Rect.width p.die / pitch) in
  let ny = max 2 (Geom.Rect.height p.die / pitch) in
  let design = p.Place.Placement.design in
  let instances = design.Netlist.Design.instances in
  let top_net =
    Array.fold_left
      (fun m (inst : Netlist.Design.instance) ->
        Array.fold_left max m inst.pin_nets)
      (Array.length design.Netlist.Design.nets - 1)
      instances
  in
  if top_net + 2 > owner_max then
    invalid_arg
      (Printf.sprintf "Grid.of_placement: net %d exceeds the owner field (max %d)"
         top_net (owner_max - 2));
  let pin_base = Array.make (max 1 (Array.length instances)) 0 in
  let acc = ref 0 in
  Array.iteri
    (fun i (inst : Netlist.Design.instance) ->
      pin_base.(i) <- !acc;
      acc := !acc + List.length inst.master.Pdk.Stdcell.pins)
    instances;
  let g =
    {
      placement = p;
      nx;
      ny;
      nl = layers;
      pitch;
      edges = Array.make (layers * nx * ny) ((free + 2) lsl owner_shift);
      pin_base;
      pin_access_off = [||];
      pin_access_nodes = [||];
      overflow_edges = 0;
    }
  in
  if tech.Pdk.Tech.arch = Pdk.Cell_arch.Conventional12 then install_m1_rails g
  else install_m2_rails g;
  install_pdn_stripes g;
  Array.iteri
    (fun inst_id (inst : Netlist.Design.instance) ->
      List.iteri
        (fun k (_ : Pdk.Stdcell.pin) ->
          let pr = { Netlist.Design.inst = inst_id; pin = k } in
          let net = inst.pin_nets.(k) in
          let shapes = Place.Placement.pin_shapes p pr in
          List.iter
            (fun (layer, r) ->
              if Pdk.Layer.equal layer Pdk.Layer.M1 then
                install_m1_shape g ~net:(if net >= 0 then net else blocked) r)
            shapes)
        inst.master.Pdk.Stdcell.pins)
    instances;
  build_pin_index g;
  g

(* --- usage commitment ------------------------------------------------ *)

(* Only the 1 <-> 2 usage transitions change the overflowed-edge total,
   so [overflow_count] never scans. A usage field never wraps into its
   neighbour: a commit past [usage_mask] or an uncommit below zero
   raises. *)

let[@vm1.cold] usage_out_of_range fn n =
  invalid_arg (Printf.sprintf "Grid.%s: usage of node %d out of range" fn n)

let commit_wire g n =
  let w = g.edges.(n) in
  let u = (w land usage_mask) + 1 in
  if u > usage_mask then usage_out_of_range "commit_wire" n;
  g.edges.(n) <- w + 1;
  if u = 2 then g.overflow_edges <- g.overflow_edges + 1

let uncommit_wire g n =
  let w = g.edges.(n) in
  let u = w land usage_mask in
  if u = 0 then usage_out_of_range "uncommit_wire" n;
  g.edges.(n) <- w - 1;
  if u = 2 then g.overflow_edges <- g.overflow_edges - 1

let commit_via g n =
  let w = g.edges.(n) in
  let u = ((w lsr via_shift) land usage_mask) + 1 in
  if u > usage_mask then usage_out_of_range "commit_via" n;
  g.edges.(n) <- w + (1 lsl via_shift);
  if u = 2 then g.overflow_edges <- g.overflow_edges + 1

let uncommit_via g n =
  let w = g.edges.(n) in
  let u = (w lsr via_shift) land usage_mask in
  if u = 0 then usage_out_of_range "uncommit_via" n;
  g.edges.(n) <- w - (1 lsl via_shift);
  if u = 2 then g.overflow_edges <- g.overflow_edges - 1

let overflow_count g = g.overflow_edges

(* Reference implementation of [overflow_count], scanning every edge;
   kept as the oracle the O(1) count is tested against. *)
let overflow_count_scan g =
  let count = ref 0 in
  let size = node_count g in
  for n = 0 to size - 1 do
    if has_wire_edge g n && wire_usage g n > 1 then incr count;
    if has_via_edge g n && via_usage g n > 1 then incr count
  done;
  !count

let clear_usage g =
  let owner_bits = (-1) lsl owner_shift in
  Array.iteri (fun n w -> g.edges.(n) <- w land owner_bits) g.edges;
  g.overflow_edges <- 0
