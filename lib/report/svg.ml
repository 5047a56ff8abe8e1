let scale = 9.0

let sx x = float_of_int x /. scale

(* y flipped: SVG grows downward, rows grow upward *)
let sy ~die_h y = float_of_int (die_h - y) /. scale

let header ~w ~h buf =
  Buffer.add_string buf
    (Printf.sprintf
       "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%.0f\" \
        height=\"%.0f\" viewBox=\"0 0 %.0f %.0f\">\n\
        <rect width=\"100%%\" height=\"100%%\" fill=\"#fafafa\"/>\n"
       (sx w) (float_of_int h /. scale) (sx w) (float_of_int h /. scale))

let footer buf = Buffer.add_string buf "</svg>\n"

let rect buf ~die_h ?(stroke = "none") ?(stroke_width = 0.3) ~fill
    (r : Geom.Rect.t) =
  Buffer.add_string buf
    (Printf.sprintf
       "<rect x=\"%.2f\" y=\"%.2f\" width=\"%.2f\" height=\"%.2f\" \
        fill=\"%s\" stroke=\"%s\" stroke-width=\"%.2f\"/>\n"
       (sx r.lx) (sy ~die_h r.hy)
       (sx (Geom.Rect.width r))
       (float_of_int (Geom.Rect.height r) /. scale)
       fill stroke stroke_width)

let line buf ~die_h ~color ~width (x1, y1) (x2, y2) =
  Buffer.add_string buf
    (Printf.sprintf
       "<line x1=\"%.2f\" y1=\"%.2f\" x2=\"%.2f\" y2=\"%.2f\" \
        stroke=\"%s\" stroke-width=\"%.2f\" stroke-linecap=\"round\"/>\n"
       (sx x1) (sy ~die_h y1) (sx x2) (sy ~die_h y2) color width)

let kind_fill = function
  | Pdk.Stdcell.Dff -> "#b3cde3"
  | Pdk.Stdcell.Fill -> "#eeeeee"
  | Pdk.Stdcell.Inv | Pdk.Stdcell.Buf -> "#ccebc5"
  | _ -> "#fed9a6"

let draw_placement buf (p : Place.Placement.t) =
  let die_h = Geom.Rect.height p.die in
  rect buf ~die_h ~stroke:"#333333" ~stroke_width:0.6 ~fill:"none" p.die;
  for i = 0 to Place.Placement.num_instances p - 1 do
    let inst = p.design.Netlist.Design.instances.(i) in
    rect buf ~die_h ~stroke:"#888888" ~stroke_width:0.15
      ~fill:(kind_fill inst.master.Pdk.Stdcell.kind)
      (Place.Placement.instance_rect p i);
    (* pin marks *)
    List.iteri
      (fun k _ ->
        let pos =
          Place.Placement.pin_pos p { Netlist.Design.inst = i; pin = k }
        in
        Buffer.add_string buf
          (Printf.sprintf
             "<circle cx=\"%.2f\" cy=\"%.2f\" r=\"0.6\" fill=\"#555555\"/>\n"
             (sx pos.Geom.Point.x)
             (sy ~die_h pos.Geom.Point.y)))
      inst.master.Pdk.Stdcell.pins
  done

let placement (p : Place.Placement.t) =
  let buf = Buffer.create (1 lsl 16) in
  header ~w:(Geom.Rect.width p.die) ~h:(Geom.Rect.height p.die) buf;
  draw_placement buf p;
  footer buf;
  Buffer.contents buf

let layer_color = function
  | 1 -> "#e41a1c"
  | 2 -> "#377eb8"
  | 3 -> "#4daf4a"
  | 4 -> "#984ea3"
  | 5 -> "#ff7f00"
  | _ -> "#a65628"

let routed (r : Route.Router.result) =
  let g = r.grid in
  let p = g.Route.Grid.placement in
  let die_h = Geom.Rect.height p.die in
  let buf = Buffer.create (1 lsl 18) in
  header ~w:(Geom.Rect.width p.die) ~h:die_h buf;
  draw_placement buf p;
  Array.iter
    (fun (nr : Route.Router.net_route) ->
      Array.iter
        (fun (sn : Route.Router.subnet) ->
          Array.iter
            (fun c ->
              match Route.Router.edge_of_code c with
              | Route.Router.Wire n ->
                let l = Route.Grid.layer_of_node g n in
                let i = Route.Grid.i_of_node g n in
                let j = Route.Grid.j_of_node g n in
                let x = Route.Grid.track_x g i in
                let y = Route.Grid.track_y g j in
                let x2, y2 =
                  if Route.Grid.is_vertical_layer l then
                    (x, Route.Grid.track_y g (j + 1))
                  else (Route.Grid.track_x g (i + 1), y)
                in
                line buf ~die_h ~color:(layer_color l)
                  ~width:(0.5 +. (0.08 *. float_of_int l))
                  (x, y) (x2, y2)
              | Route.Router.Via n ->
                let i = Route.Grid.i_of_node g n in
                let j = Route.Grid.j_of_node g n in
                Buffer.add_string buf
                  (Printf.sprintf
                     "<circle cx=\"%.2f\" cy=\"%.2f\" r=\"0.5\" \
                      fill=\"#000000\"/>\n"
                     (sx (Route.Grid.track_x g i))
                     (sy ~die_h (Route.Grid.track_y g j))))
            sn.path)
        nr.subnets)
    r.routes;
  footer buf;
  Buffer.contents buf

let congestion (r : Route.Router.result) =
  let g = r.grid in
  let p = g.Route.Grid.placement in
  let die_h = Geom.Rect.height p.die in
  let buf = Buffer.create (1 lsl 16) in
  header ~w:(Geom.Rect.width p.die) ~h:die_h buf;
  (* bin usage into 8x8-track tiles *)
  let tile = 8 in
  let tx = (g.Route.Grid.nx + tile - 1) / tile in
  let ty = (g.Route.Grid.ny + tile - 1) / tile in
  let used = Array.make_matrix tx ty 0 in
  let cap = Array.make_matrix tx ty 0 in
  let size = Route.Grid.node_count g in
  for n = 0 to size - 1 do
    if Route.Grid.has_wire_edge g n then begin
      let i = Route.Grid.i_of_node g n / tile in
      let j = Route.Grid.j_of_node g n / tile in
      if Route.Grid.wire_owner g n <> Route.Grid.blocked then begin
        cap.(i).(j) <- cap.(i).(j) + 1;
        used.(i).(j) <- used.(i).(j) + min 2 (Route.Grid.wire_usage g n)
      end
    end
  done;
  for i = 0 to tx - 1 do
    for j = 0 to ty - 1 do
      if cap.(i).(j) > 0 then begin
        let ratio = float_of_int used.(i).(j) /. float_of_int cap.(i).(j) in
        let level = int_of_float (255.0 *. Float.min 1.0 (ratio *. 2.0)) in
        let fill = Printf.sprintf "rgb(255,%d,%d)" (255 - level) (255 - level) in
        rect buf ~die_h ~fill
          (Geom.Rect.make
             ~lx:(i * tile * g.Route.Grid.pitch)
             ~ly:(j * tile * g.Route.Grid.pitch)
             ~hx:((i + 1) * tile * g.Route.Grid.pitch)
             ~hy:((j + 1) * tile * g.Route.Grid.pitch))
      end
    done
  done;
  rect buf ~die_h ~stroke:"#333333" ~stroke_width:0.6 ~fill:"none" p.die;
  footer buf;
  Buffer.contents buf

let write_file path content =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc content)
