type t = {
  design : Netlist.Design.t;
  tech : Pdk.Tech.t;
  die : Geom.Rect.t;
  num_rows : int;
  sites_per_row : int;
  xs : int array;
  ys : int array;
  orients : Geom.Orient.t array;
  pin_table : pin_table;
}

(* Every instance of a master under one orientation has the same pin
   bounding box up to a shift by its origin, so the box is placed at
   origin (0, 0) once per (master, orientation). Pin [k] of instance [i]
   under orientation [o] has its box's lx, ly, hx, hy at
   [boxes.(4 * (slot.(i) + (4 * k) + orient_index o)) ...]; shifting it
   by the origin gives the exact placed box, since placing a shape is
   orienting it and shifting it by the origin. *)
and pin_table = { slot : int array; boxes : int array }

let orient_index = function
  | Geom.Orient.N -> 0
  | FN -> 1
  | S -> 2
  | FS -> 3

let pin_table (design : Netlist.Design.t) =
  let origin = Geom.Point.make 0 0 in
  (* slots by master name, told apart by identity should two differ *)
  let slots = Hashtbl.create 64 and next = ref 0 and boxes = ref [] in
  let slot =
    Array.map
      (fun (inst : Netlist.Design.instance) ->
        let m = inst.master in
        let same = Option.value ~default:[] (Hashtbl.find_opt slots m.name) in
        match List.assq_opt m same with
        | Some s -> s
        | None ->
          let s = !next in
          Hashtbl.replace slots m.name ((m, s) :: same);
          List.iter
            (fun pin ->
              List.iter
                (fun orient ->
                  let r = Pdk.Stdcell.placed_pin_bbox m ~orient ~origin pin in
                  boxes := r.hy :: r.hx :: r.ly :: r.lx :: !boxes;
                  incr next)
                Geom.Orient.[ N; FN; S; FS ])
            m.pins;
          s)
      design.instances
  in
  { slot; boxes = Array.of_list (List.rev !boxes) }

let total_cell_area (design : Netlist.Design.t) tech =
  Array.fold_left
    (fun acc (inst : Netlist.Design.instance) ->
      acc + (inst.master.Pdk.Stdcell.width * tech.Pdk.Tech.row_height))
    0 design.instances

let create (design : Netlist.Design.t) ~utilization =
  if utilization <= 0.0 || utilization > 1.0 then
    invalid_arg "Placement.create: utilization must be in (0,1]";
  let tech = design.lib.Pdk.Libgen.tech in
  let area = float_of_int (total_cell_area design tech) /. utilization in
  let side = sqrt area in
  let num_rows =
    max 2 (int_of_float (Float.round (side /. float_of_int tech.row_height)))
  in
  let width_dbu = area /. float_of_int (num_rows * tech.row_height) in
  let sites_per_row =
    max 4 (int_of_float (ceil (width_dbu /. float_of_int tech.site_width)))
  in
  let die =
    Geom.Rect.make ~lx:0 ~ly:0
      ~hx:(sites_per_row * tech.site_width)
      ~hy:(num_rows * tech.row_height)
  in
  let n = Array.length design.instances in
  {
    design;
    tech;
    die;
    num_rows;
    sites_per_row;
    xs = Array.make n 0;
    ys = Array.make n 0;
    orients = Array.make n Geom.Orient.N;
    pin_table = pin_table design;
  }

let copy t =
  {
    t with
    xs = Array.copy t.xs;
    ys = Array.copy t.ys;
    orients = Array.copy t.orients;
  }

let assign dst src =
  Array.blit src.xs 0 dst.xs 0 (Array.length src.xs);
  Array.blit src.ys 0 dst.ys 0 (Array.length src.ys);
  Array.blit src.orients 0 dst.orients 0 (Array.length src.orients)

let num_instances t = Array.length t.xs

let instance_rect t i =
  let m = t.design.Netlist.Design.instances.(i).master in
  Geom.Rect.make ~lx:t.xs.(i) ~ly:t.ys.(i)
    ~hx:(t.xs.(i) + m.Pdk.Stdcell.width)
    ~hy:(t.ys.(i) + m.Pdk.Stdcell.height)

let master_pin t (pr : Netlist.Design.pin_ref) =
  let m = t.design.Netlist.Design.instances.(pr.inst).master in
  (m, List.nth m.Pdk.Stdcell.pins pr.pin)

let pin_shapes t (pr : Netlist.Design.pin_ref) =
  let m, pin = master_pin t pr in
  Pdk.Stdcell.placed_pin_shapes m ~orient:t.orients.(pr.inst)
    ~origin:(Geom.Point.make t.xs.(pr.inst) t.ys.(pr.inst))
    pin

(* the index of pin [pr]'s local box under [orient] in [t.pin_table.boxes] *)
let box t (pr : Netlist.Design.pin_ref) orient =
  4 * (t.pin_table.slot.(pr.inst) + (4 * pr.pin) + orient_index orient)

(* an empty box is not shifted, as [Geom.Rect.shift] leaves it *)
let pin_box_at t pr ~x ~y ~orient k =
  let b = t.pin_table.boxes and q = box t pr orient in
  let lx = b.(q) and ly = b.(q + 1) and hx = b.(q + 2) and hy = b.(q + 3) in
  if lx > hx || ly > hy then k lx ly hx hy
  else k (lx + x) (ly + y) (hx + x) (hy + y)

let pin_bbox t (pr : Netlist.Design.pin_ref) =
  pin_box_at t pr ~x:t.xs.(pr.inst) ~y:t.ys.(pr.inst)
    ~orient:t.orients.(pr.inst) (fun lx ly hx hy ->
      Geom.Rect.make ~lx ~ly ~hx ~hy)

(* [Geom.Rect.center (pin_bbox t pr)], without building the box *)
let pin_pos t (pr : Netlist.Design.pin_ref) =
  let b = t.pin_table.boxes and q = box t pr t.orients.(pr.inst) in
  let lx = b.(q) and ly = b.(q + 1) and hx = b.(q + 2) and hy = b.(q + 3) in
  if lx > hx || ly > hy then Geom.Point.make ((lx + hx) / 2) ((ly + hy) / 2)
  else
    let x = t.xs.(pr.inst) and y = t.ys.(pr.inst) in
    Geom.Point.make ((lx + x + (hx + x)) / 2) ((ly + y + (hy + y)) / 2)

let pin_x_interval t pr = Geom.Rect.x_span (pin_bbox t pr)
let row_of_inst t i = t.ys.(i) / t.tech.Pdk.Tech.row_height
let site_of_inst t i = t.xs.(i) / t.tech.Pdk.Tech.site_width

let move t i ~site ~row ~orient =
  t.xs.(i) <- site * t.tech.Pdk.Tech.site_width;
  t.ys.(i) <- row * t.tech.Pdk.Tech.row_height;
  t.orients.(i) <- orient

let inside_die t i =
  let r = instance_rect t i in
  r.Geom.Rect.lx >= t.die.Geom.Rect.lx
  && r.Geom.Rect.ly >= t.die.Geom.Rect.ly
  && r.Geom.Rect.hx <= t.die.Geom.Rect.hx
  && r.Geom.Rect.hy <= t.die.Geom.Rect.hy

let overlap_count t =
  (* sweep per row: cells sorted by x; overlap iff next cell starts before
     the previous ends *)
  let n = num_instances t in
  let by_row = Hashtbl.create 64 in
  for i = 0 to n - 1 do
    let r = row_of_inst t i in
    let prev = Option.value ~default:[] (Hashtbl.find_opt by_row r) in
    Hashtbl.replace by_row r (i :: prev)
  done;
  let count = ref 0 in
  Hashtbl.fold (fun r _ acc -> r :: acc) by_row []
  |> List.sort Int.compare
  |> List.iter (fun r ->
         let cells = Hashtbl.find by_row r in
         let sorted =
           List.sort (fun a b -> Int.compare t.xs.(a) t.xs.(b)) cells
         in
         let rec sweep = function
           | a :: (b :: _ as rest) ->
             let ra = instance_rect t a in
             if t.xs.(b) < ra.Geom.Rect.hx then incr count;
             sweep rest
           | [ _ ] | [] -> ()
         in
         sweep sorted);
  !count

let utilization t =
  let area = total_cell_area t.design t.tech in
  float_of_int area /. float_of_int (Geom.Rect.area t.die)

let to_def t =
  {
    Netlist.Def_io.die = t.die;
    xs = Array.copy t.xs;
    ys = Array.copy t.ys;
    orients = Array.copy t.orients;
  }

let of_def (design : Netlist.Design.t) (p : Netlist.Def_io.placement) =
  let tech = design.lib.Pdk.Libgen.tech in
  let num_rows = Geom.Rect.height p.die / tech.Pdk.Tech.row_height in
  let sites_per_row = Geom.Rect.width p.die / tech.Pdk.Tech.site_width in
  {
    design;
    tech;
    die = p.die;
    num_rows;
    sites_per_row;
    xs = Array.copy p.xs;
    ys = Array.copy p.ys;
    orients = Array.copy p.orients;
    pin_table = pin_table design;
  }
