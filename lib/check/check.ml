let design d = Netlist.Design.validate d

(* Placement legality, recomputed from scratch: grid alignment per
   instance, die containment, and overlap by a row-bucketed sweep over a
   sorted index array (deliberately not [Placement.overlap_count]). *)
let placement (p : Place.Placement.t) =
  let problems = ref [] in
  let say fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let tech = p.Place.Placement.tech in
  let sw = tech.Pdk.Tech.site_width and rh = tech.Pdk.Tech.row_height in
  let n = Place.Placement.num_instances p in
  for i = 0 to n - 1 do
    if p.xs.(i) mod sw <> 0 then
      say "instance %d: x %d off the site grid (pitch %d)" i p.xs.(i) sw;
    if p.ys.(i) mod rh <> 0 then
      say "instance %d: y %d off the row grid (pitch %d)" i p.ys.(i) rh;
    if not (Place.Placement.inside_die p i) then
      say "instance %d: outside the die" i
  done;
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      match
        Int.compare (Place.Placement.row_of_inst p a)
          (Place.Placement.row_of_inst p b)
      with
      | 0 -> Int.compare p.xs.(a) p.xs.(b)
      | c -> c)
    order;
  for k = 0 to n - 2 do
    let a = order.(k) and b = order.(k + 1) in
    if Place.Placement.row_of_inst p a = Place.Placement.row_of_inst p b then begin
      let ra = Place.Placement.instance_rect p a in
      if p.xs.(b) < ra.Geom.Rect.hx then
        say "instances %d and %d overlap in row %d" a b
          (Place.Placement.row_of_inst p a)
    end
  done;
  List.rev !problems

let windows (p : Place.Placement.t) ~tx ~ty ~bw ~bh =
  let problems = ref [] in
  let say fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let tech = p.Place.Placement.tech in
  let sw = tech.Pdk.Tech.site_width and rh = tech.Pdk.Tech.row_height in
  let ws = Vm1.Window.partition p ~tx ~ty ~bw ~bh in
  let seen = Hashtbl.create 256 in
  Array.iteri
    (fun wi (w : Vm1.Window.t) ->
      List.iter
        (fun i ->
          (match Hashtbl.find_opt seen i with
          | Some wj ->
            say "instance %d movable in two windows (#%d and #%d)" i wj wi
          | None -> Hashtbl.add seen i wi);
          let r = Place.Placement.instance_rect p i in
          let wx0 = w.site_lo * sw and wx1 = (w.site_lo + w.bw) * sw in
          let wy0 = w.row_lo * rh and wy1 = (w.row_lo + w.bh) * rh in
          if
            r.Geom.Rect.lx < wx0 || r.Geom.Rect.hx > wx1
            || r.Geom.Rect.ly < wy0 || r.Geom.Rect.hy > wy1
          then
            say "instance %d not fully inside its window (%d,%d)" i w.ix w.iy)
        w.movable)
    ws;
  List.iteri
    (fun bi batch ->
      let k = Array.length batch in
      for a = 0 to k - 2 do
        for b = a + 1 to k - 1 do
          let wa : Vm1.Window.t = batch.(a) and wb : Vm1.Window.t = batch.(b) in
          if wa.site_lo < wb.site_lo + wb.bw && wb.site_lo < wa.site_lo + wa.bw
          then
            say "batch %d: windows (%d,%d) and (%d,%d) share a site span" bi
              wa.ix wa.iy wb.ix wb.iy;
          if wa.row_lo < wb.row_lo + wb.bh && wb.row_lo < wa.row_lo + wa.bh
          then
            say "batch %d: windows (%d,%d) and (%d,%d) share a row span" bi
              wa.ix wa.iy wb.ix wb.iy
        done
      done)
    (Vm1.Window.diagonal_batches ws);
  List.rev !problems

let objective_counts (params : Vm1.Params.t) (p : Place.Placement.t)
    (c : Vm1.Objective.counts) =
  let problems = ref [] in
  let say fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let design = p.Place.Placement.design and tech = p.tech in
  let is_open = tech.Pdk.Tech.arch = Pdk.Cell_arch.Open_m1 in
  let hpwl = ref 0 and alignments = ref 0 and overlap_sum = ref 0 in
  let weighted = ref 0.0 in
  List.iter
    (fun n ->
      let pins = design.Netlist.Design.nets.(n).pins in
      let lx = ref max_int and hx = ref min_int in
      let ly = ref max_int and hy = ref min_int in
      Array.iter
        (fun pr ->
          let pt = Place.Placement.pin_pos p pr in
          if pt.Geom.Point.x < !lx then lx := pt.Geom.Point.x;
          if pt.Geom.Point.x > !hx then hx := pt.Geom.Point.x;
          if pt.Geom.Point.y < !ly then ly := pt.Geom.Point.y;
          if pt.Geom.Point.y > !hy then hy := pt.Geom.Point.y)
        pins;
      let h = if !lx > !hx then 0 else !hx - !lx + (!hy - !ly) in
      hpwl := !hpwl + h;
      weighted :=
        !weighted +. (Vm1.Params.net_weight params n *. float_of_int h);
      let k = Array.length pins in
      for i = 0 to k - 2 do
        for j = i + 1 to k - 1 do
          if pins.(i).Netlist.Design.inst <> pins.(j).Netlist.Design.inst
          then begin
            let ga = Vm1.Align.of_placed p pins.(i) in
            let gb = Vm1.Align.of_placed p pins.(j) in
            if is_open then begin
              match Vm1.Align.overlap params tech ga gb with
              | true, o ->
                incr alignments;
                overlap_sum := !overlap_sum + o
              | false, _ -> ()
            end
            else if Vm1.Align.aligned params tech ga gb then incr alignments
          end
        done
      done)
    (Netlist.Design.signal_nets design);
  if !hpwl <> c.Vm1.Objective.hpwl_dbu then
    say "hpwl recount %d != reported %d" !hpwl c.Vm1.Objective.hpwl_dbu;
  if abs_float (!weighted -. c.weighted_hpwl) > 1e-6 *. (1.0 +. abs_float !weighted)
  then say "weighted hpwl recount %g != reported %g" !weighted c.weighted_hpwl;
  if !alignments <> c.alignments then
    say "alignment recount %d != reported %d" !alignments c.alignments;
  if !overlap_sum <> c.overlap_sum then
    say "overlap recount %d != reported %d" !overlap_sum c.overlap_sum;
  List.rev !problems

let milp_solution (wp : Vm1.Wproblem.t) (sol : Milp.Bnb.solution) =
  match sol.Milp.Bnb.status with
  | Milp.Bnb.Infeasible -> []
  | Milp.Bnb.Optimal | Milp.Bnb.Node_limit ->
    let built = Vm1.Formulate.build wp in
    Milp.Model.check built.Vm1.Formulate.model sol.Milp.Bnb.values

let route_result (r : Route.Router.result) =
  let problems = ref [] in
  let say fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let g = r.Route.Router.grid in
  let size = Route.Grid.node_count g in
  let wire_use = Array.make size 0 and via_use = Array.make size 0 in
  let failed = ref 0 in
  Array.iter
    (fun (nr : Route.Router.net_route) ->
      Array.iter
        (fun (sn : Route.Router.subnet) ->
          if not sn.routed then incr failed
          else
            Array.iter
              (fun code ->
                match Route.Router.edge_of_code code with
                | Route.Router.Wire n ->
                  wire_use.(n) <- wire_use.(n) + 1;
                  let owner = Route.Grid.wire_owner g n in
                  if owner = Route.Grid.blocked then
                    say "net %d routed through a blocked wire edge (node %d)"
                      nr.net_id n
                  else if owner <> Route.Grid.free && owner <> nr.net_id then
                    say
                      "net %d routed through an edge reserved for net %d \
                       (node %d)"
                      nr.net_id owner n
                | Route.Router.Via n -> via_use.(n) <- via_use.(n) + 1)
              sn.path)
        nr.subnets)
    r.routes;
  if !failed <> r.failed_subnets then
    say "failed-subnet recount %d != reported %d" !failed r.failed_subnets;
  let wire_bad = ref 0 and via_bad = ref 0 in
  for n = 0 to size - 1 do
    if wire_use.(n) <> Route.Grid.wire_usage g n then incr wire_bad;
    if via_use.(n) <> Route.Grid.via_usage g n then incr via_bad
  done;
  if !wire_bad > 0 then
    say "%d wire-edge usage cells differ from the path replay" !wire_bad;
  if !via_bad > 0 then
    say "%d via-edge usage cells differ from the path replay" !via_bad;
  let scan = Route.Grid.overflow_count_scan g in
  let count = Route.Grid.overflow_count g in
  if count <> scan then say "overflow count %d != full scan %d" count scan;
  let replayed = ref 0 in
  for n = 0 to size - 1 do
    if Route.Grid.has_wire_edge g n && wire_use.(n) > 1 then incr replayed;
    if Route.Grid.has_via_edge g n && via_use.(n) > 1 then incr replayed
  done;
  if !replayed <> scan then
    say "overflow replay %d != full scan %d" !replayed scan;
  (* Connectivity, per fully-routed net: union-find over grid nodes plus
     one virtual node per pin (a pin's access nodes all sit on the pin's
     own metal, so uniting them through the pin is sound — and makes the
     router's shared-access-node empty-path case count as connected). *)
  let design = g.placement.Place.Placement.design in
  Array.iter
    (fun (nr : Route.Router.net_route) ->
      let all_routed =
        Array.for_all (fun (sn : Route.Router.subnet) -> sn.routed) nr.subnets
      in
      if all_routed && Array.length nr.subnets > 0 then begin
        let uf = Hashtbl.create 64 in
        let rec find x =
          match Hashtbl.find_opt uf x with
          | None -> x
          | Some px ->
            let r = find px in
            if r <> px then Hashtbl.replace uf x r;
            r
        in
        let union a b =
          let ra = find a and rb = find b in
          if ra <> rb then Hashtbl.replace uf ra rb
        in
        Array.iter
          (fun (sn : Route.Router.subnet) ->
            Array.iter
              (fun code ->
                match Route.Router.edge_of_code code with
                | Route.Router.Wire n -> union n (Route.Grid.wire_dest g n)
                | Route.Router.Via n -> union n (Route.Grid.via_dest g n))
              sn.path)
          nr.subnets;
        let pins = design.Netlist.Design.nets.(nr.net_id).pins in
        Array.iteri
          (fun k pr ->
            List.iter
              (fun n -> union (size + k) n)
              (Route.Grid.pin_access g pr))
          pins;
        if Array.length pins > 1 then begin
          let root = find size in
          Array.iteri
            (fun k _ ->
              if k > 0 && find (size + k) <> root then
                say "net %d: pin %d disconnected from pin 0" nr.net_id k)
            pins
        end
      end)
    r.routes;
  List.rev !problems

type finding = {
  oracle : string;
  problems : string list;
}

(* MILP feasibility on one small extracted window: solve with the
   Formulate verify hook set, then re-verify the assignment explicitly. *)
let milp_window (params : Vm1.Params.t) (p : Place.Placement.t) ~bw ~bh =
  let ws = Vm1.Window.partition p ~tx:0 ~ty:0 ~bw ~bh in
  match Array.find_opt (fun (w : Vm1.Window.t) -> w.movable <> []) ws with
  | None -> []
  | Some w ->
    let movable = List.filteri (fun k _ -> k < 3) w.movable in
    let wp =
      Vm1.Wproblem.extract p params ~site_lo:w.site_lo ~row_lo:w.row_lo
        ~bw:w.bw ~bh:w.bh ~movable ~lx:2 ~ly:1 ~allow_flip:true
        ~allow_move:true
    in
    let saved = !Vm1.Formulate.verify in
    Vm1.Formulate.verify := true;
    let problems =
      match Vm1.Formulate.solve ~node_limit:500 wp with
      | sol -> milp_solution wp sol
      | exception Vm1.Formulate.Verify_failed ps ->
        List.map (fun s -> "solver assignment infeasible: " ^ s) ps
    in
    Vm1.Formulate.verify := saved;
    problems

let flow (params : Vm1.Params.t) (p : Place.Placement.t) =
  let findings = ref [] in
  let add oracle problems = findings := { oracle; problems } :: !findings in
  add "design" (design p.Place.Placement.design);
  add "placement" (placement p);
  let tech = p.tech in
  let sw = tech.Pdk.Tech.site_width and rh = tech.Pdk.Tech.row_height in
  (* window geometry of the default sequence's first step (20 um) *)
  let bw = max 16 (20_000 / sw) and bh = max 4 (20_000 / rh) in
  add "windows" (windows p ~tx:0 ~ty:0 ~bw ~bh);
  add "objective" (objective_counts params p (Vm1.Objective.counts params p));
  add "route" (route_result (Route.Router.route p));
  add "milp" (milp_window params p ~bw ~bh);
  List.rev !findings

let ok findings = List.for_all (fun f -> f.problems = []) findings

let pp_findings ppf findings =
  List.iter
    (fun f ->
      Format.fprintf ppf "%-14s %s@." f.oracle
        (if f.problems = [] then "ok"
         else Printf.sprintf "%d problem(s)" (List.length f.problems));
      List.iter (fun s -> Format.fprintf ppf "    %s@." s) f.problems)
    findings
