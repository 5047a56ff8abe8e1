type candidate = {
  site : int;
  row : int;
  orient : Geom.Orient.t;
}

type cell = {
  inst : int;
  width : int;
  cands : candidate array;
  geoms : Align.pin_geom array array;
  cand_cost : float array;  (* static per-candidate penalty (congestion) *)
  mutable cur : int;
}

type wpin = {
  pr : Netlist.Design.pin_ref;
  owner : int;
  fixed_geom : Align.pin_geom;
}

type wnet = {
  net_id : int;
  weight : float;  (* beta_n / beta: the per-net multiplier *)
  wpins : wpin array;
}

type t = {
  placement : Place.Placement.t;
  params : Params.t;
  is_open : bool;
  site_lo : int;
  row_lo : int;
  bw : int;
  bh : int;
  cells : cell array;
  nets : wnet array;
  pairs : (wpin * wpin) array;
  cell_nets : int list array;
  cell_pairs : int list array;
  occ : Bytes.t;        (* per-site movable-cell count + fixed marks *)
  fixed_occ : Bytes.t;  (* fixed blockage only *)
  cand_index : (int, int) Hashtbl.t array;  (* encoded candidate -> index *)
  row_cells : int list array;  (* window row -> cells with a candidate in it *)
}

(* --- occupancy helpers; coordinates are window-local. Occupancy is a
   per-site count so that transient overlap during multi-cell plan
   application stays consistent. --- *)

let occ_idx t ~site ~row = ((row - t.row_lo) * t.bw) + (site - t.site_lo)

let bump occ t ~site ~row ~width delta =
  for s = site to site + width - 1 do
    let i = occ_idx t ~site:s ~row in
    Bytes.set occ i (Char.chr (Char.code (Bytes.get occ i) + delta))
  done

let footprint_free occ t ~site ~row ~width =
  let rec go s =
    s >= site + width
    || (Bytes.get occ (occ_idx t ~site:s ~row) = '\000' && go (s + 1))
  in
  go site

let encode_cand t ~site ~row ~orient =
  let o = if Geom.Orient.is_flipped orient then 1 else 0 in
  ((((row - t.row_lo) * (t.bw + 1)) + (site - t.site_lo)) * 2) + o

(* --- extraction --- *)

(* Row-bucketed instance ids, for fixed-occupancy extraction. Built once
   per batch (positions are stable until the batch commits), it turns the
   per-window full-design walk into a walk of the window's own rows. *)
let row_index (p : Place.Placement.t) =
  let idx = Array.make p.num_rows [] in
  let n = Place.Placement.num_instances p in
  for i = n - 1 downto 0 do
    let r = Place.Placement.row_of_inst p i in
    if r >= 0 && r < p.num_rows then idx.(r) <- i :: idx.(r)
  done;
  idx

let[@vm1.hot] extract ?candidate_cost ?rows (p : Place.Placement.t) (params : Params.t)
    ~site_lo ~row_lo ~bw ~bh ~movable ~lx ~ly ~allow_flip ~allow_move =
  let design = p.design in
  let tech = p.tech in
  let movable = Array.of_list movable in
  let n_cells = Array.length movable in
  let cell_of_inst = Hashtbl.create (2 * n_cells) in
  Array.iteri (fun c i -> Hashtbl.replace cell_of_inst i c) movable;
  (* fixed occupancy: every instance footprint intersecting the window,
     except the movable ones *)
  let shell =
    {
      placement = p;
      params;
      is_open = tech.Pdk.Tech.arch = Pdk.Cell_arch.Open_m1;
      site_lo;
      row_lo;
      bw;
      bh;
      cells = [||];
      nets = [||];
      pairs = [||];
      cell_nets = [||];
      cell_pairs = [||];
      occ = Bytes.make (bw * bh) '\000';
      fixed_occ = Bytes.make (bw * bh) '\000';
      cand_index = [||];
      row_cells = [||];
    }
  in
  let fixed_occ = Bytes.make (bw * bh) '\000' in
  let site_hi = site_lo + bw - 1 and row_hi = row_lo + bh - 1 in
  let mark_fixed i r =
    if not (Hashtbl.mem cell_of_inst i) then begin
      let inst = design.Netlist.Design.instances.(i) in
      let s = Place.Placement.site_of_inst p i in
      let w = inst.master.Pdk.Stdcell.width_sites in
      let a = max s site_lo and b = min (s + w - 1) site_hi in
      if a <= b then bump fixed_occ shell ~site:a ~row:r ~width:(b - a + 1) 1
    end
  in
  (match rows with
  | Some idx ->
    (* occupancy bumps are additive, so visiting by row bucket instead of
       instance id leaves the resulting map identical *)
    for r = max 0 row_lo to min (Array.length idx - 1) row_hi do
      List.iter (fun i -> mark_fixed i r) idx.(r)
    done
  | None ->
    Array.iteri
      (fun i (_ : Netlist.Design.instance) ->
        let r = Place.Placement.row_of_inst p i in
        if r >= row_lo && r <= row_hi then mark_fixed i r)
      design.instances);
  (* candidate generation *)
  let make_cell c_idx inst_id =
    ignore c_idx;
    let inst = design.Netlist.Design.instances.(inst_id) in
    let w = inst.master.Pdk.Stdcell.width_sites in
    let s0 = Place.Placement.site_of_inst p inst_id in
    let r0 = Place.Placement.row_of_inst p inst_id in
    let o0 = p.orients.(inst_id) in
    let cands = ref [] in
    let try_cand site row orient =
      let duplicate = site = s0 && row = r0 && orient = o0 in
      if
        (not duplicate)
        && site >= site_lo
        && site + w - 1 <= site_hi
        && row >= row_lo && row <= row_hi
        && row >= 0
        && row < p.num_rows
        && site >= 0
        && site + w <= p.sites_per_row
        && footprint_free fixed_occ shell ~site ~row ~width:w
      then cands := { site; row; orient } :: !cands
    in
    let orients = if allow_flip then [ o0; Geom.Orient.flip_y o0 ] else [ o0 ] in
    let move_s = if allow_move then lx else 0 in
    let move_r = if allow_move then ly else 0 in
    List.iter
      (fun o ->
        for ds = -move_s to move_s do
          for dr = -move_r to move_r do
            try_cand (s0 + ds) (r0 + dr) o
          done
        done)
      orients;
    let cands =
      Array.of_list ({ site = s0; row = r0; orient = o0 } :: List.rev !cands)
    in
    let n_pins = List.length inst.master.Pdk.Stdcell.pins in
    (* placed pin geometry is affine in the cell origin, so the master's
       shape lists are walked once per orientation (at site/row 0) and
       every candidate's table is a translation of that base *)
    let locals =
      List.map
        (fun o ->
          ( o,
            Array.init n_pins (fun k ->
                Align.of_candidate p
                  { Netlist.Design.inst = inst_id; pin = k }
                  ~site:0 ~row:0 ~orient:o) ))
        orients
    in
    let sw = tech.Pdk.Tech.site_width and rh = tech.Pdk.Tech.row_height in
    let geoms =
      Array.map
        (fun (cand : candidate) ->
          let base =
            match
              List.find_opt
                (fun (o, _) -> Geom.Orient.equal o cand.orient)
                locals
            with
            | Some (_, a) -> a
            | None ->
              (* unreachable: candidates only use orientations from
                 [orients] *)
              Array.init n_pins (fun k ->
                  Align.of_candidate p
                    { Netlist.Design.inst = inst_id; pin = k }
                    ~site:0 ~row:0 ~orient:cand.orient)
          in
          let dx = cand.site * sw and dy = cand.row * rh in
          Array.map
            (fun (g : Align.pin_geom) ->
              {
                Align.ax = g.Align.ax + dx;
                x_lo = g.Align.x_lo + dx;
                x_hi = g.Align.x_hi + dx;
                y = g.Align.y + dy;
              })
            base)
        cands
    in
    let cand_cost =
      match candidate_cost with
      | None -> Array.make (Array.length cands) 0.0
      | Some f ->
        Array.map (fun (c : candidate) -> f ~site:c.site ~row:c.row) cands
    in
    { inst = inst_id; width = w; cands; geoms; cand_cost; cur = 0 }
  in
  let cells = Array.mapi make_cell movable in
  (* nets touching movable cells *)
  let net_set = Hashtbl.create 64 in
  Array.iter
    (fun cell ->
      List.iter
        (fun n ->
          let net = design.Netlist.Design.nets.(n) in
          if (not net.is_clock) && Array.length net.pins >= 2 then
            Hashtbl.replace net_set n ())
        (Netlist.Design.nets_of_instance design cell.inst))
    cells;
  let make_wpin (pr : Netlist.Design.pin_ref) =
    let owner =
      match Hashtbl.find_opt cell_of_inst pr.inst with
      | Some c -> c
      | None -> -1
    in
    let fixed_geom =
      if owner >= 0 then
        (* placeholder; geometry comes from the candidate table *)
        cells.(owner).geoms.(0).(pr.pin)
      else Align.of_placed p pr
    in
    { pr; owner; fixed_geom }
  in
  (* sorted, not hash-order: the net array fixes the float-summation
     order of the objective, which must be byte-reproducible *)
  let nets =
    Hashtbl.fold (fun n () acc -> n :: acc) net_set []
    |> List.sort Int.compare
    |> List.map (fun n ->
           let net = design.Netlist.Design.nets.(n) in
           {
             net_id = n;
             weight = Params.net_weight params n;
             wpins = Array.map make_wpin net.pins;
           })
    |> Array.of_list
  in
  (* pair prefilter: keep pairs that can satisfy the dM1 predicate under
     some candidate combination *)
  let tech_row = tech.Pdk.Tech.row_height in
  (* per-(cell, pin) candidate-geometry envelopes, computed once — the
     pair prefilter below consults them once per net pair instead of
     rescanning the whole candidate table each time *)
  let pin_range (cell : cell) pin =
    let axmin = ref max_int and axmax = ref min_int in
    let lomin = ref max_int and himax = ref min_int in
    let ymin = ref max_int and ymax = ref min_int in
    Array.iter
      (fun geoms ->
        let g = geoms.(pin) in
        if g.Align.ax < !axmin then axmin := g.Align.ax;
        if g.Align.ax > !axmax then axmax := g.Align.ax;
        if g.x_lo < !lomin then lomin := g.x_lo;
        if g.x_hi > !himax then himax := g.x_hi;
        if g.y < !ymin then ymin := g.y;
        if g.y > !ymax then ymax := g.y)
      cell.geoms;
    (!axmin, !axmax, !lomin, !himax, !ymin, !ymax)
  in
  let cell_pin_ranges =
    Array.map
      (fun (cell : cell) ->
        Array.init (Array.length cell.geoms.(0)) (pin_range cell))
      cells
  in
  let geom_range (wp : wpin) =
    if wp.owner < 0 then
      let g = wp.fixed_geom in
      (g.Align.ax, g.Align.ax, g.x_lo, g.x_hi, g.y, g.y)
    else cell_pin_ranges.(wp.owner).(wp.pr.pin)
  in
  let is_open = shell.is_open in
  let feasible_pair a b =
    let axmin_a, axmax_a, lomin_a, himax_a, ymin_a, ymax_a = geom_range a in
    let axmin_b, axmax_b, lomin_b, himax_b, ymin_b, ymax_b = geom_range b in
    let dy_min = max 0 (max (ymin_a - ymax_b) (ymin_b - ymax_a)) in
    if is_open then
      let max_ov = min himax_a himax_b - max lomin_a lomin_b in
      max_ov >= params.Params.delta
      && dy_min <= params.Params.gamma * tech_row
    else
      max axmin_a axmin_b <= min axmax_a axmax_b
      && dy_min <= params.Params.closed_gamma * tech_row
  in
  let pairs = ref [] in
  Array.iter
    (fun wnet ->
      let k = Array.length wnet.wpins in
      for i = 0 to k - 2 do
        for j = i + 1 to k - 1 do
          let a = wnet.wpins.(i) and b = wnet.wpins.(j) in
          if
            a.pr.inst <> b.pr.inst
            && (a.owner >= 0 || b.owner >= 0)
            && feasible_pair a b
          then pairs := (a, b) :: !pairs
        done
      done)
    nets;
  let pairs = Array.of_list !pairs in
  (* per-cell incidence *)
  let cell_nets = Array.make n_cells [] in
  Array.iteri
    (fun local wnet ->
      let seen = Hashtbl.create 4 in
      Array.iter
        (fun wp ->
          if wp.owner >= 0 && not (Hashtbl.mem seen wp.owner) then begin
            Hashtbl.add seen wp.owner ();
            cell_nets.(wp.owner) <- local :: cell_nets.(wp.owner)
          end)
        wnet.wpins)
    nets;
  let cell_pairs = Array.make n_cells [] in
  Array.iteri
    (fun idx (a, b) ->
      if a.owner >= 0 then cell_pairs.(a.owner) <- idx :: cell_pairs.(a.owner);
      if b.owner >= 0 && b.owner <> a.owner then
        cell_pairs.(b.owner) <- idx :: cell_pairs.(b.owner))
    pairs;
  (* live occupancy = fixed + movable current footprints *)
  let occ = Bytes.copy fixed_occ in
  let cand_index =
    Array.map
      (fun (cell : cell) ->
        let h = Hashtbl.create (2 * Array.length cell.cands) in
        Array.iteri
          (fun k (cand : candidate) ->
            Hashtbl.replace h
              (encode_cand shell ~site:cand.site ~row:cand.row
                 ~orient:cand.orient)
              k)
          cell.cands;
        h)
      cells
  in
  (* per window row, ascending, the cells with any candidate in that row
     (shove_plan's search space). Cells are visited in descending order
     and prepended, so a cell's repeat visits to a row find it already
     at the head. *)
  let row_cells = Array.make bh [] in
  for c = n_cells - 1 downto 0 do
    Array.iter
      (fun (cand : candidate) ->
        let r = cand.row - row_lo in
        match row_cells.(r) with
        | hd :: _ when hd = c -> ()
        | l -> row_cells.(r) <- c :: l)
      cells.(c).cands
  done;
  let t =
    { shell with cells; nets; pairs; cell_nets; cell_pairs; occ; fixed_occ;
      cand_index; row_cells }
  in
  Array.iter
    (fun cell ->
      let c = cell.cands.(cell.cur) in
      bump occ t ~site:c.site ~row:c.row ~width:cell.width 1)
    cells;
  t

(* --- evaluation --- *)

let pin_geom t (wp : wpin) =
  if wp.owner < 0 then wp.fixed_geom
  else begin
    let cell = t.cells.(wp.owner) in
    cell.geoms.(cell.cur).(wp.pr.pin)
  end

(* Geometry of a pin assuming [cell] sits at candidate [cand]; other cells
   at their current candidates. *)
let pin_geom_if t ~cell ~cand (wp : wpin) =
  if wp.owner >= 0 && wp.owner = cell then
    t.cells.(cell).geoms.(cand).(wp.pr.pin)
  else pin_geom t wp

(* Ref-free bounding-box walk: this runs once per (cell, candidate, net)
   in the solver inner loops, so the four int refs of the obvious
   formulation are a measurable allocation cost. *)
let net_hpwl_with t ~cell ~cand (wnet : wnet) =
  let wpins = wnet.wpins in
  let n = Array.length wpins in
  let rec go i xmin xmax ymin ymax =
    if i = n then xmax - xmin + (ymax - ymin)
    else begin
      let g = pin_geom_if t ~cell ~cand wpins.(i) in
      let ax = g.Align.ax and y = g.Align.y in
      go (i + 1)
        (if ax < xmin then ax else xmin)
        (if ax > xmax then ax else xmax)
        (if y < ymin then y else ymin)
        (if y > ymax then y else ymax)
    end
  in
  go 0 max_int min_int max_int min_int

let pair_gain_with t ~cell ~cand (a, b) =
  let tech = t.placement.Place.Placement.tech in
  Align.pair_gain t.params tech
    (pin_geom_if t ~cell ~cand a)
    (pin_geom_if t ~cell ~cand b)

(* Window-local QoR counts in the problem's current state; the same
   quantities Objective.counts reports globally, restricted to the
   window's nets and pre-filtered pairs. Used by Dist_opt to attach
   before/after attribution data to per-window trace spans. *)
type qor = {
  hpwl_dbu : int;
  alignments : int;
  overlap_sum : int;
}

let qor t =
  let hpwl = ref 0 in
  Array.iter
    (fun wnet -> hpwl := !hpwl + net_hpwl_with t ~cell:(-1) ~cand:0 wnet)
    t.nets;
  let tech = t.placement.Place.Placement.tech in
  let alignments = ref 0 and overlap_sum = ref 0 in
  Array.iter
    (fun (a, b) ->
      let ga = pin_geom t a and gb = pin_geom t b in
      if t.is_open then begin
        let d, o = Align.overlap t.params tech ga gb in
        if d then incr alignments;
        overlap_sum := !overlap_sum + o
      end
      else if Align.aligned t.params tech ga gb then incr alignments)
    t.pairs;
  { hpwl_dbu = !hpwl; alignments = !alignments; overlap_sum = !overlap_sum }

let objective t =
  let beta = t.params.Params.beta in
  let total = ref 0.0 in
  Array.iter (fun (c : cell) -> total := !total +. c.cand_cost.(c.cur)) t.cells;
  Array.iter
    (fun wnet ->
      total :=
        !total
        +. (beta *. wnet.weight
            *. float_of_int (net_hpwl_with t ~cell:(-1) ~cand:0 wnet)))
    t.nets;
  Array.iter
    (fun pair -> total := !total -. pair_gain_with t ~cell:(-1) ~cand:0 pair)
    t.pairs;
  !total

let candidate_free t ~cell ~cand =
  let c = t.cells.(cell) in
  let cur = c.cands.(c.cur) and next = c.cands.(cand) in
  (* lift own footprint, test, restore *)
  bump t.occ t ~site:cur.site ~row:cur.row ~width:c.width (-1);
  let ok = footprint_free t.occ t ~site:next.site ~row:next.row ~width:c.width in
  bump t.occ t ~site:cur.site ~row:cur.row ~width:c.width 1;
  ok

(* Folds rather than a float ref: the summation order (cand_cost, then
   nets in incidence order, then pairs) is unchanged, so the float
   result is bit-identical to the ref formulation. *)
let local_cost t ~cell ~cand =
  let beta = t.params.Params.beta in
  let acc =
    List.fold_left
      (fun acc nidx ->
        let wnet = t.nets.(nidx) in
        acc
        +. (beta *. wnet.weight
            *. float_of_int (net_hpwl_with t ~cell ~cand wnet)))
      t.cells.(cell).cand_cost.(cand)
      t.cell_nets.(cell)
  in
  List.fold_left
    (fun acc pidx -> acc -. pair_gain_with t ~cell ~cand t.pairs.(pidx))
    acc t.cell_pairs.(cell)

let move_delta t ~cell ~cand =
  let c = t.cells.(cell) in
  local_cost t ~cell ~cand -. local_cost t ~cell ~cand:c.cur

let apply t ~cell ~cand =
  let c = t.cells.(cell) in
  let cur = c.cands.(c.cur) and next = c.cands.(cand) in
  bump t.occ t ~site:cur.site ~row:cur.row ~width:c.width (-1);
  bump t.occ t ~site:next.site ~row:next.row ~width:c.width 1;
  c.cur <- cand

let commit t =
  Array.iter
    (fun c ->
      let cand = c.cands.(c.cur) in
      Place.Placement.move t.placement c.inst ~site:cand.site ~row:cand.row
        ~orient:cand.orient)
    t.cells

(* --- multi-cell plans (ripple moves) ---

   A plan is a list of (cell, candidate) moves applied together. Plans are
   how the solver reproduces the MILP's coordinated moves: to vacate a
   target footprint, same-row neighbours are pushed sideways within their
   own candidate sets (so every pushed cell still respects its
   perturbation range, the window bounds and fixed blockage). *)

let apply_plan t plan = List.iter (fun (cell, cand) -> apply t ~cell ~cand) plan

(* The affected nets/pairs come back as sorted id lists: the evaluation
   below sums floats, so visiting them in hash order would make the total
   depend on table layout. *)
let plan_affected t plan =
  let nets = Hashtbl.create 16 and pairs = Hashtbl.create 16 in
  List.iter
    (fun (cell, _) ->
      List.iter (fun n -> Hashtbl.replace nets n ()) t.cell_nets.(cell);
      List.iter (fun pi -> Hashtbl.replace pairs pi ()) t.cell_pairs.(cell))
    plan;
  let keys tbl =
    Hashtbl.fold (fun k () acc -> k :: acc) tbl [] |> List.sort Int.compare
  in
  (keys nets, keys pairs)

let eval_affected t nets pairs cells_involved =
  let beta = t.params.Params.beta in
  let acc = ref 0.0 in
  List.iter
    (fun cell ->
      let c = t.cells.(cell) in
      acc := !acc +. c.cand_cost.(c.cur))
    cells_involved;
  List.iter
    (fun n ->
      let wnet = t.nets.(n) in
      acc :=
        !acc
        +. (beta *. wnet.weight
            *. float_of_int (net_hpwl_with t ~cell:(-1) ~cand:0 wnet)))
    nets;
  List.iter
    (fun pi -> acc := !acc -. pair_gain_with t ~cell:(-1) ~cand:0 t.pairs.(pi))
    pairs;
  !acc

let plan_delta t plan =
  let saved = List.map (fun (cell, _) -> (cell, t.cells.(cell).cur)) plan in
  let cells_involved = List.map fst plan in
  let nets, pairs = plan_affected t plan in
  let before = eval_affected t nets pairs cells_involved in
  apply_plan t plan;
  let after = eval_affected t nets pairs cells_involved in
  apply_plan t saved;
  after -. before

let max_plan_moves = 8

let shove_plan t ~cell ~cand =
  let c = t.cells.(cell) in
  let target = c.cands.(cand) in
  let row = target.row in
  let a = target.site and b = target.site + c.width in
  (* candidate lookup preserving a cell's current orientation and row *)
  let cand_at idx ~site =
    let cc = t.cells.(idx) in
    let orient = cc.cands.(cc.cur).orient in
    Hashtbl.find_opt t.cand_index.(idx) (encode_cand t ~site ~row ~orient)
  in
  (* movable cells currently in the target row, except the moving one;
     only cells with a candidate in the row can be there *)
  let in_row = ref [] in
  List.iter
    (fun idx ->
      if idx <> cell then begin
        let cc = t.cells.(idx) in
        let cur = cc.cands.(cc.cur) in
        if cur.row = row then in_row := (idx, cur.site, cc.width) :: !in_row
      end)
    t.row_cells.(row - t.row_lo);
  let asc = List.sort (fun (_, s1, _) (_, s2, _) -> Int.compare s1 s2) !in_row in
  let desc = List.rev asc in
  let moves = ref [ (cell, cand) ] in
  let count = ref 1 in
  let exception Fail in
  try
    (* left cascade: cells starting left of the target whose right edge
       intrudes past [required] slide left, nearest first *)
    let required = ref a in
    List.iter
      (fun (idx, site, width) ->
        if site < a && site + width > !required then begin
          let new_site = !required - width in
          incr count;
          if !count > max_plan_moves then raise Fail;
          match cand_at idx ~site:new_site with
          | Some k ->
            moves := (idx, k) :: !moves;
            required := new_site
          | None -> raise Fail
        end)
      desc;
    (* right cascade *)
    let required = ref b in
    List.iter
      (fun (idx, site, width) ->
        if site >= a && site < !required && site + width > a then begin
          let new_site = !required in
          incr count;
          if !count > max_plan_moves then raise Fail;
          match cand_at idx ~site:new_site with
          | Some k ->
            moves := (idx, k) :: !moves;
            required := new_site + width
          | None -> raise Fail
        end)
      asc;
    (* verify the final configuration is overlap-free by testing against
       occupancy with all planned cells lifted *)
    List.iter
      (fun (idx, _) ->
        let cc = t.cells.(idx) in
        let cur = cc.cands.(cc.cur) in
        bump t.occ t ~site:cur.site ~row:cur.row ~width:cc.width (-1))
      !moves;
    let ok =
      List.for_all
        (fun (idx, k) ->
          let cc = t.cells.(idx) in
          let nc = cc.cands.(k) in
          footprint_free t.occ t ~site:nc.site ~row:nc.row ~width:cc.width)
        !moves
      (* the planned footprints must also be mutually disjoint; test by
         marking incrementally *)
      &&
      let rec place = function
        | [] -> true
        | (idx, k) :: rest ->
          let cc = t.cells.(idx) in
          let nc = cc.cands.(k) in
          if footprint_free t.occ t ~site:nc.site ~row:nc.row ~width:cc.width
          then begin
            bump t.occ t ~site:nc.site ~row:nc.row ~width:cc.width 1;
            let r = place rest in
            bump t.occ t ~site:nc.site ~row:nc.row ~width:cc.width (-1);
            r
          end
          else false
      in
      place !moves
    in
    List.iter
      (fun (idx, _) ->
        let cc = t.cells.(idx) in
        let cur = cc.cands.(cc.cur) in
        bump t.occ t ~site:cur.site ~row:cur.row ~width:cc.width 1)
      !moves;
    if ok then Some !moves else None
  with Fail ->
    (* restore any lifted footprints is unnecessary here: Fail is raised
       only before the lifting phase *)
    None

(* Objective credit of [cell]'s pairs if it sat at [cand]: used to decide
   which blocked candidates are worth a shove attempt. *)
let cell_pair_gain_at t ~cell ~cand =
  List.fold_left
    (fun acc pi -> acc +. pair_gain_with t ~cell ~cand t.pairs.(pi))
    0.0 t.cell_pairs.(cell)

(* --- raw occupancy primitives for the exact search, which lifts every
   movable cell and re-places them one at a time --- *)

let lift t ~cell =
  let c = t.cells.(cell) in
  let cur = c.cands.(c.cur) in
  bump t.occ t ~site:cur.site ~row:cur.row ~width:c.width (-1)

let drop t ~cell =
  let c = t.cells.(cell) in
  let cur = c.cands.(c.cur) in
  bump t.occ t ~site:cur.site ~row:cur.row ~width:c.width 1

let footprint_free_at t ~cell ~cand =
  let c = t.cells.(cell) in
  let nc = c.cands.(cand) in
  footprint_free t.occ t ~site:nc.site ~row:nc.row ~width:c.width

let set_cur t ~cell ~cand = t.cells.(cell).cur <- cand

(* --- assignments and clones (the solver-portfolio substrate) --- *)

let assignment t = Array.map (fun (c : cell) -> c.cur) t.cells

let set_assignment t a =
  if Array.length a <> Array.length t.cells then
    invalid_arg "Wproblem.set_assignment: arity mismatch";
  (* apply keeps occupancy consistent; the per-site counts tolerate the
     transient overlap of moving cells one at a time *)
  Array.iteri
    (fun i cand -> if t.cells.(i).cur <> cand then apply t ~cell:i ~cand)
    a

let clone t =
  {
    t with
    cells = Array.map (fun (c : cell) -> { c with cur = c.cur }) t.cells;
    occ = Bytes.copy t.occ;
  }
