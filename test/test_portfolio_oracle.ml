(* Oracle tests for the window solver's shortcuts: the sequential
   `Portfolio (exact on a clone, then greedy, then annealing continued
   from greedy's state), the packed evaluation tables and shove_plan's
   owner-map walk. Each must reproduce, bit for bit, the formulation it
   replaced; those formulations are kept here as references:

   - the raced portfolio's rule: every admissible solver on its own
     clone, run in turn, winner = best objective with ties going
     exact > greedy > anneal;
   - local_cost, cell_pair_gain_at and candidate_free walking per-pin
     records (net -> pin -> owner cell -> candidate geometry), rebuilt
     here from the placement the way extraction used to build them,
     with candidate_free lifting the cell's own footprint and restoring
     it;
   - shove_plan with a scan and sort of every cell in the target row,
     finding candidates by a linear scan of each cell's list.

   Windows come from small m0 (ClosedM1) and aes (OpenM1) placements,
   with move and flip candidates, vertical moves, some movable cells
   turned into fixed blockage inside the rows, and states both fresh and
   after earlier moves.

   A state-invariant property checks the owner map, occupancy and pin
   coordinates against a rebuild from every cell's candidate after
   random sequences of moves, plans, assignments and exact solves.

   A last case pins the whole-placement profile of the portfolio on
   jpeg at scale 4 (ClosedM1): a cold DistOpt pass that fills a window
   cache and a warm pass that replays from it. Its windows, batches,
   moves, HPWL, alignments, win counts and cache hits are deterministic,
   so any drift is a behaviour change. *)

module W = Vm1.Wproblem
module S = Vm1.Scp_solver
module Align = Vm1.Align

let placements =
  lazy
    (List.map
       (fun (name, arch) ->
         let p = Report.Flow.prepare ~scale:32 name arch in
         (p, Vm1.Params.default p.Place.Placement.tech))
       [
         (Netlist.Designs.M0, Pdk.Cell_arch.Closed_m1);
         (Netlist.Designs.Aes, Pdk.Cell_arch.Open_m1);
       ])

(* --- the pre-change references --- *)

let reference_portfolio t =
  let admissible =
    Array.length t.W.cells <= 6 && S.exact_search_space t <= 50_000
  in
  let racers =
    (if admissible then [ ("exact", S.exact) ] else [])
    @ [ ("greedy", fun p -> S.solve ~mode:`Greedy p);
        ("anneal", fun p -> S.solve ~mode:`Anneal p) ]
  in
  let results =
    List.map
      (fun (name, solve) ->
        let p = W.clone t in
        let s = solve p in
        (name, p, s))
      racers
  in
  let best = ref None in
  List.iter
    (fun ((_, _, (s : S.stats)) as r) ->
      match !best with
      | Some (_, _, (b : S.stats)) when s.objective_after >= b.objective_after
        -> ()
      | _ -> best := Some r)
    results;
  match !best with
  | None -> assert false
  | Some (name, p, s) ->
    W.set_assignment t (W.assignment p);
    (name, s)

let occ_idx (t : W.t) ~site ~row =
  ((row - t.row_lo) * t.bw) + (site - t.site_lo)

let bump (t : W.t) ~site ~row ~width delta =
  for s = site to site + width - 1 do
    let i = occ_idx t ~site:s ~row in
    Bytes.set t.occ i (Char.chr (Char.code (Bytes.get t.occ i) + delta))
  done

let footprint_free (t : W.t) ~site ~row ~width =
  let rec go s =
    s >= site + width
    || (Bytes.get t.occ (occ_idx t ~site:s ~row) = '\000' && go (s + 1))
  in
  go site

let max_plan_moves = 8

let reference_shove_plan (t : W.t) ~cell ~cand =
  let c = t.cells.(cell) in
  let target = c.cands.(cand) in
  let row = target.row in
  let a = target.site and b = target.site + c.width in
  let cand_at idx ~site =
    let cc = t.cells.(idx) in
    let orient = cc.cands.(cc.cur).orient in
    let found = ref None in
    Array.iteri
      (fun k (c : W.candidate) ->
        if
          !found = None && c.site = site && c.row = row
          && Geom.Orient.is_flipped c.orient = Geom.Orient.is_flipped orient
        then found := Some k)
      cc.cands;
    !found
  in
  let in_row = ref [] in
  Array.iteri
    (fun idx (cc : W.cell) ->
      if idx <> cell then begin
        let cur = cc.cands.(cc.cur) in
        if cur.row = row then in_row := (idx, cur.site, cc.width) :: !in_row
      end)
    t.cells;
  let asc =
    List.sort (fun (_, s1, _) (_, s2, _) -> Int.compare s1 s2) !in_row
  in
  let desc = List.rev asc in
  let moves = ref [ (cell, cand) ] in
  let count = ref 1 in
  let exception Fail in
  try
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
    List.iter
      (fun (idx, _) ->
        let cc = t.cells.(idx) in
        let cur = cc.cands.(cc.cur) in
        bump t ~site:cur.site ~row:cur.row ~width:cc.width (-1))
      !moves;
    let ok =
      List.for_all
        (fun (idx, k) ->
          let cc = t.cells.(idx) in
          let nc = cc.cands.(k) in
          footprint_free t ~site:nc.site ~row:nc.row ~width:cc.width)
        !moves
      &&
      let rec place = function
        | [] -> true
        | (idx, k) :: rest ->
          let cc = t.cells.(idx) in
          let nc = cc.cands.(k) in
          if footprint_free t ~site:nc.site ~row:nc.row ~width:cc.width
          then begin
            bump t ~site:nc.site ~row:nc.row ~width:cc.width 1;
            let r = place rest in
            bump t ~site:nc.site ~row:nc.row ~width:cc.width (-1);
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
        bump t ~site:cur.site ~row:cur.row ~width:cc.width 1)
      !moves;
    if ok then Some !moves else None
  with Fail -> None

(* The record-walking evaluation the packed tables replaced. [ref_of t]
   rebuilds, from the placement alone, what extraction used to build:
   per-candidate pin geometry records, net and pin records, the pair
   prefilter over candidate envelopes and list incidence. The kernels
   below are the old ones, reading each cell's [cur] from [t]. *)

type rpin = {
  pr : Netlist.Design.pin_ref;
  owner : int;
  fixed_geom : Align.pin_geom;
}

type rnet = {
  weight : float;
  rpins : rpin array;
}

type reference = {
  t : W.t;
  geoms : Align.pin_geom array array array;  (* cell -> cand -> pin *)
  nets : rnet array;
  pairs : (rpin * rpin) array;
  cell_nets : int list array;
  cell_pairs : int list array;
}

let ref_of (t : W.t) =
  let p = t.placement in
  let design = p.Place.Placement.design in
  let geoms =
    Array.map
      (fun (c : W.cell) ->
        Array.map
          (fun (cand : W.candidate) ->
            Array.init c.npins (fun pin ->
                Align.of_candidate p { Netlist.Design.inst = c.inst; pin }
                  ~site:cand.site ~row:cand.row ~orient:cand.orient))
          c.cands)
      t.cells
  in
  let owner_of inst =
    let found = ref (-1) in
    Array.iteri (fun c (cell : W.cell) -> if cell.inst = inst then found := c)
      t.cells;
    !found
  in
  let net_ids =
    Array.to_list t.cells
    |> List.concat_map (fun (c : W.cell) ->
           Netlist.Design.nets_of_instance design c.inst)
    |> List.filter (fun n ->
           let net = design.Netlist.Design.nets.(n) in
           (not net.is_clock) && Array.length net.pins >= 2)
    |> List.sort_uniq Int.compare
  in
  let nets =
    Array.of_list
      (List.map
         (fun n ->
           {
             weight = Vm1.Params.net_weight t.params n;
             rpins =
               Array.map
                 (fun (pr : Netlist.Design.pin_ref) ->
                   let owner = owner_of pr.inst in
                   let fixed_geom =
                     if owner >= 0 then geoms.(owner).(0).(pr.pin)
                     else Align.of_placed p pr
                   in
                   { pr; owner; fixed_geom })
                 design.Netlist.Design.nets.(n).pins;
           })
         net_ids)
  in
  let range (rp : rpin) =
    let gs =
      if rp.owner < 0 then [ rp.fixed_geom ]
      else Array.to_list (Array.map (fun g -> g.(rp.pr.pin)) geoms.(rp.owner))
    in
    let fold f sel =
      List.fold_left (fun a g -> f a (sel g)) (sel (List.hd gs)) gs
    in
    ( fold min (fun g -> g.Align.ax), fold max (fun g -> g.Align.ax),
      fold min (fun g -> g.Align.x_lo), fold max (fun g -> g.Align.x_hi),
      fold min (fun g -> g.Align.y), fold max (fun g -> g.Align.y) )
  in
  let tech = p.Place.Placement.tech in
  let rh = tech.Pdk.Tech.row_height in
  let feasible a b =
    let axmin_a, axmax_a, lomin_a, himax_a, ymin_a, ymax_a = range a in
    let axmin_b, axmax_b, lomin_b, himax_b, ymin_b, ymax_b = range b in
    let dy_min = max 0 (max (ymin_a - ymax_b) (ymin_b - ymax_a)) in
    if t.is_open then
      min himax_a himax_b - max lomin_a lomin_b >= t.params.delta
      && dy_min <= t.params.gamma * rh
    else
      max axmin_a axmin_b <= min axmax_a axmax_b
      && dy_min <= t.params.closed_gamma * rh
  in
  let pairs = ref [] in
  Array.iter
    (fun net ->
      let k = Array.length net.rpins in
      for i = 0 to k - 2 do
        for j = i + 1 to k - 1 do
          let a = net.rpins.(i) and b = net.rpins.(j) in
          if
            a.pr.inst <> b.pr.inst
            && (a.owner >= 0 || b.owner >= 0)
            && feasible a b
          then pairs := (a, b) :: !pairs
        done
      done)
    nets;
  let pairs = Array.of_list !pairs in
  let n_cells = Array.length t.cells in
  let cell_nets = Array.make n_cells [] in
  Array.iteri
    (fun local net ->
      let seen = Hashtbl.create 4 in
      Array.iter
        (fun rp ->
          if rp.owner >= 0 && not (Hashtbl.mem seen rp.owner) then begin
            Hashtbl.add seen rp.owner ();
            cell_nets.(rp.owner) <- local :: cell_nets.(rp.owner)
          end)
        net.rpins)
    nets;
  let cell_pairs = Array.make n_cells [] in
  Array.iteri
    (fun idx (a, b) ->
      if a.owner >= 0 then cell_pairs.(a.owner) <- idx :: cell_pairs.(a.owner);
      if b.owner >= 0 && b.owner <> a.owner then
        cell_pairs.(b.owner) <- idx :: cell_pairs.(b.owner))
    pairs;
  { t; geoms; nets; pairs; cell_nets; cell_pairs }

let ref_pin_geom r rp =
  if rp.owner < 0 then rp.fixed_geom
  else r.geoms.(rp.owner).(r.t.cells.(rp.owner).cur).(rp.pr.pin)

let ref_pin_geom_if r ~cell ~cand rp =
  if rp.owner >= 0 && rp.owner = cell then r.geoms.(cell).(cand).(rp.pr.pin)
  else ref_pin_geom r rp

let ref_net_hpwl r ~cell ~cand net =
  let geoms = Array.map (ref_pin_geom_if r ~cell ~cand) net.rpins in
  let xs = Array.map (fun (g : Align.pin_geom) -> g.ax) geoms
  and ys = Array.map (fun (g : Align.pin_geom) -> g.y) geoms in
  let span a = Array.fold_left max min_int a - Array.fold_left min max_int a in
  span xs + span ys

let ref_pair_gain r ~cell ~cand (a, b) =
  Align.pair_gain r.t.params r.t.placement.Place.Placement.tech
    (ref_pin_geom_if r ~cell ~cand a)
    (ref_pin_geom_if r ~cell ~cand b)

let ref_local_cost r ~cell ~cand =
  let beta = r.t.params.beta in
  let acc =
    List.fold_left
      (fun acc n ->
        let net = r.nets.(n) in
        acc
        +. (beta *. net.weight
            *. float_of_int (ref_net_hpwl r ~cell ~cand net)))
      r.t.cells.(cell).cand_cost.(cand) r.cell_nets.(cell)
  in
  List.fold_left
    (fun acc q -> acc -. ref_pair_gain r ~cell ~cand r.pairs.(q))
    acc r.cell_pairs.(cell)

let ref_cell_pair_gain_at r ~cell ~cand =
  List.fold_left
    (fun acc q -> acc +. ref_pair_gain r ~cell ~cand r.pairs.(q))
    0.0 r.cell_pairs.(cell)

let ref_objective r =
  let beta = r.t.params.beta in
  let total = ref 0.0 in
  Array.iter
    (fun (c : W.cell) -> total := !total +. c.cand_cost.(c.cur))
    r.t.cells;
  Array.iter
    (fun net ->
      total :=
        !total
        +. (beta *. net.weight
            *. float_of_int (ref_net_hpwl r ~cell:(-1) ~cand:0 net)))
    r.nets;
  Array.iter
    (fun pair -> total := !total -. ref_pair_gain r ~cell:(-1) ~cand:0 pair)
    r.pairs;
  !total

(* the list-based plan evaluation: affected nets and pairs as sorted
   key lists, cand_cost over the plan's cells in list order *)
let ref_plan_delta r plan =
  let t = r.t in
  let nets = Hashtbl.create 16 and pairs = Hashtbl.create 16 in
  List.iter
    (fun (cell, _) ->
      List.iter (fun n -> Hashtbl.replace nets n ()) r.cell_nets.(cell);
      List.iter (fun q -> Hashtbl.replace pairs q ()) r.cell_pairs.(cell))
    plan;
  let keys tbl =
    Hashtbl.fold (fun k () acc -> k :: acc) tbl [] |> List.sort Int.compare
  in
  let nets = keys nets and pairs = keys pairs in
  let eval () =
    let acc = ref 0.0 in
    List.iter
      (fun (cell, _) ->
        let c = t.cells.(cell) in
        acc := !acc +. c.cand_cost.(c.cur))
      plan;
    List.iter
      (fun n ->
        let net = r.nets.(n) in
        acc :=
          !acc
          +. (t.params.beta *. net.weight
              *. float_of_int (ref_net_hpwl r ~cell:(-1) ~cand:0 net)))
      nets;
    List.iter
      (fun q -> acc := !acc -. ref_pair_gain r ~cell:(-1) ~cand:0 r.pairs.(q))
      pairs;
    !acc
  in
  let saved = List.map (fun (cell, _) -> (cell, t.cells.(cell).cur)) plan in
  let before = eval () in
  W.apply_plan t plan;
  let after = eval () in
  W.apply_plan t saved;
  after -. before

(* lift the cell's own footprint, test, restore: on a copy of the
   occupancy, so the problem is never written *)
let ref_candidate_free (t : W.t) ~cell ~cand =
  let saved = t.occ in
  let t = { t with occ = Bytes.copy saved } in
  let c = t.cells.(cell) in
  let cur = c.cands.(c.cur) and next = c.cands.(cand) in
  bump t ~site:cur.site ~row:cur.row ~width:c.width (-1);
  footprint_free t ~site:next.site ~row:next.row ~width:c.width

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* every kernel against its reference, for every (cell, candidate) and
   every ripple plan shove_plan stages; the tables' pin records against
   the reference pins *)
let kernels_match r =
  let t = r.t in
  let ok = ref (same_float (W.objective t) (ref_objective r)) in
  let q = ref 0 in
  Array.iter
    (fun net ->
      Array.iter
        (fun rp ->
          let k = !q * W.pin_stride and g = ref_pin_geom r rp in
          if
            t.pins.(k) <> rp.owner
            || t.pins.(k + 1) <> 4 * rp.pr.pin
            || t.pins.(k + 2) <> g.ax || t.pins.(k + 3) <> g.x_lo
            || t.pins.(k + 4) <> g.x_hi || t.pins.(k + 5) <> g.y
          then ok := false;
          incr q)
        net.rpins)
    r.nets;
  if W.num_pairs t <> Array.length r.pairs then ok := false;
  Array.iteri
    (fun cell (c : W.cell) ->
      for cand = 0 to Array.length c.cands - 1 do
        if
          not
            (same_float
               (W.local_cost t ~cell ~cand)
               (ref_local_cost r ~cell ~cand)
            && same_float
                 (W.move_delta t ~cell ~cand)
                 (ref_local_cost r ~cell ~cand
                 -. ref_local_cost r ~cell ~cand:c.cur)
            && same_float
                 (W.cell_pair_gain_at t ~cell ~cand)
                 (ref_cell_pair_gain_at r ~cell ~cand)
            && Bool.equal (W.candidate_free t ~cell ~cand)
                 (ref_candidate_free t ~cell ~cand))
        then ok := false;
        if
          cand <> c.cur
          && W.shove_plan t ~cell ~cand
          && not
               (same_float (W.plan_delta t)
                  (ref_plan_delta r (W.staged_plan t)))
        then ok := false
      done)
    t.cells;
  !ok

(* The wkey3 window-cache key, as Wcache.key wrote it before candidates
   were packed, zero candidate costs elided and master shapes written
   once per window: the key-equivalence properties below check that the
   current key draws the same equality classes. *)
let reference_key ~mode (p : W.t) =
  let b = Buffer.create 4096 in
  let add_int v = Buffer.add_int64_le b (Int64.of_int v) in
  let add_float v = Buffer.add_int64_le b (Int64.bits_of_float v) in
  let add_str s =
    add_int (String.length s);
    Buffer.add_string b s
  in
  let tech = p.placement.Place.Placement.tech in
  let sw = tech.Pdk.Tech.site_width and rh = tech.Pdk.Tech.row_height in
  let x0 = p.site_lo * sw and y0 = p.row_lo * rh in
  let add_master (m : Pdk.Stdcell.t) =
    add_str m.Pdk.Stdcell.name;
    List.iter
      (fun (pin : Pdk.Stdcell.pin) ->
        List.iter
          (fun (layer, (r : Geom.Rect.t)) ->
            add_str (Pdk.Layer.to_string layer);
            add_int r.Geom.Rect.lx;
            add_int r.Geom.Rect.ly;
            add_int r.Geom.Rect.hx;
            add_int r.Geom.Rect.hy)
          pin.Pdk.Stdcell.shapes)
      m.Pdk.Stdcell.pins
  in
  let add_pin q =
    let k = q * W.pin_stride in
    let owner = p.pins.(k) in
    add_int owner;
    add_int (p.pins.(k + 1) / 4);
    if owner < 0 then begin
      add_int (p.pins.(k + 2) - x0);
      add_int (p.pins.(k + 3) - x0);
      add_int (p.pins.(k + 4) - x0);
      add_int (p.pins.(k + 5) - y0)
    end
  in
  Buffer.add_string b "wkey3";
  add_str (S.mode_to_string mode);
  add_int (if p.is_open then 1 else 0);
  add_int p.bw;
  add_int p.bh;
  add_int sw;
  add_int rh;
  add_float p.params.Vm1.Params.alpha;
  add_float p.params.Vm1.Params.beta;
  add_float p.params.Vm1.Params.epsilon;
  add_int p.params.Vm1.Params.gamma;
  add_int p.params.Vm1.Params.closed_gamma;
  add_int p.params.Vm1.Params.delta;
  add_int (Array.length p.cells);
  let design = p.placement.Place.Placement.design in
  Array.iter
    (fun (c : W.cell) ->
      add_int c.width;
      add_int c.cur;
      add_master (Netlist.Design.instance_master design c.inst);
      add_int (Array.length c.cands);
      Array.iter
        (fun (cand : W.candidate) ->
          add_int (cand.site - p.site_lo);
          add_int (cand.row - p.row_lo);
          add_str (Geom.Orient.to_string cand.orient))
        c.cands;
      Array.iter add_float c.cand_cost)
    p.cells;
  add_int (Array.length p.net_weight);
  Array.iteri
    (fun n weight ->
      let first = p.net_start.(n) and stop = p.net_start.(n + 1) in
      add_float weight;
      add_int (stop - first);
      for q = first to stop - 1 do
        add_pin q
      done)
    p.net_weight;
  Buffer.add_bytes b p.fixed_occ;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* --- random windows and states --- *)

type start =
  | Fresh
  | Greedy_pass  (** after one greedy pass *)
  | Random_moves of int  (** after k random feasible single-cell moves *)

let gen_start =
  QCheck2.Gen.(
    oneof
      [
        pure Fresh;
        pure Greedy_pass;
        map (fun k -> Random_moves k) (int_range 1 12);
      ])

(* design, window (sites, rows, window pick, every how manyth movable
   cell stays as fixed blockage, 0 for none), lx, ly, flip, move, start,
   rng seed; the small windows keep exact admissible and put many
   targets at the window edge, the large ones give greedy and its shoves
   room *)
let gen_case =
  QCheck2.Gen.(
    tup8 (int_range 0 1)
      (quad (oneofl [ 10; 14; 20; 40; 80 ]) (int_range 1 4)
         (int_range 0 10_000) (oneofl [ 0; 0; 2; 3; 5 ]))
      (int_range 1 4) (int_range 0 2) bool bool gen_start (int_range 0 10_000))

(* a copy of [p] with every cell moved by [dx] sites and [dy] rows *)
let translate (p : Place.Placement.t) ~dx ~dy =
  let tech = p.tech in
  let q = Place.Placement.copy p in
  Array.iteri (fun i x -> q.xs.(i) <- x + (dx * tech.Pdk.Tech.site_width)) p.xs;
  Array.iteri (fun i y -> q.ys.(i) <- y + (dy * tech.Pdk.Tech.row_height)) p.ys;
  q

(* [shift] translates the whole placement and the window by (sites,
   rows), clamped so the window stays inside the die *)
let problem_of_case ?(shift = (0, 0))
    (design, (bw, bh, pick, keep), lx, ly, allow_flip, allow_move, start, seed)
    =
  let p, params = List.nth (Lazy.force placements) design in
  let ws = Vm1.Window.partition p ~tx:0 ~ty:0 ~bw ~bh in
  let w = ws.(pick mod Array.length ws) in
  let p, w =
    match shift with
    | 0, 0 -> (p, w)
    | dx, dy ->
      let dx = min dx (max 0 (p.sites_per_row - (w.site_lo + w.bw)))
      and dy = min dy (max 0 (p.num_rows - (w.row_lo + w.bh))) in
      ( translate p ~dx ~dy,
        { w with site_lo = w.site_lo + dx; row_lo = w.row_lo + dy } )
  in
  let movable =
    if keep = 0 then w.movable
    else List.filteri (fun i _ -> (i + seed) mod keep <> 0) w.movable
  in
  (* odd seeds take fractional weights and candidate penalties, so that
     floating-point sums depend on their order and a reordered summation
     shows in the bits *)
  let params, candidate_cost =
    if seed land 1 = 0 then (params, None)
    else
      ( {
          params with
          Vm1.Params.alpha = params.Vm1.Params.alpha +. 0.3;
          beta = 0.7;
          epsilon = params.Vm1.Params.epsilon +. 0.07;
          net_weights =
            Some
              (Array.init
                 (Netlist.Design.num_nets p.Place.Placement.design)
                 (fun i -> 1.0 +. (float_of_int (i mod 7) /. 3.0)));
        },
        Some
          (fun ~site ~row ->
            (0.1 *. float_of_int (site mod 13)) +. (0.01 *. float_of_int row))
      )
  in
  let t =
    W.extract ?candidate_cost p params ~site_lo:w.site_lo ~row_lo:w.row_lo
      ~bw:w.bw ~bh:w.bh ~movable ~lx ~ly ~allow_flip ~allow_move
  in
  (match start with
  | Fresh -> ()
  | Greedy_pass -> ignore (S.solve ~mode:`Greedy ~max_passes:1 t)
  | Random_moves k ->
    let rng = Random.State.make [| seed |] in
    let n = Array.length t.cells in
    for _ = 1 to if n = 0 then 0 else k do
      let cell = Random.State.int rng n in
      let cand = Random.State.int rng (Array.length t.cells.(cell).cands) in
      if W.candidate_free t ~cell ~cand then W.apply t ~cell ~cand
    done);
  t

let print_case
    (design, (bw, bh, pick, keep), lx, ly, flip, move, start, seed) =
  Printf.sprintf
    "design=%d window=%dx%d pick=%d fixed-every=%d lx=%d ly=%d flip=%b \
     move=%b start=%s seed=%d"
    design bw bh pick keep lx ly flip move
    (match start with
    | Fresh -> "fresh"
    | Greedy_pass -> "greedy-pass"
    | Random_moves k -> Printf.sprintf "random-%d" k)
    seed

let win_counters =
  List.map
    (fun name -> (name, Obs.counter ("distopt.portfolio_wins." ^ name)))
    [ "exact"; "greedy"; "anneal" ]

(* the sequential portfolio = the raced rule: same assignment, same
   stats, same occupancy, and the win counter of the same solver *)
let prop_portfolio_matches_reference =
  QCheck2.Test.make ~name:"sequential portfolio = raced rule" ~count:200
    ~print:print_case gen_case (fun case ->
      let t = problem_of_case case in
      let t_new = W.clone t and t_ref = W.clone t in
      let ref_winner, ref_stats = reference_portfolio t_ref in
      Obs.set_enabled true;
      let before =
        List.map (fun (n, c) -> (n, Obs.Counter.value c)) win_counters
      in
      let stats =
        Fun.protect
          ~finally:(fun () -> Obs.set_enabled false)
          (fun () -> S.solve ~mode:`Portfolio t_new)
      in
      let bumped =
        List.filter_map
          (fun (n, c) ->
            let d = Obs.Counter.value c - List.assoc n before in
            if d = 0 then None else Some (n, d))
          win_counters
      in
      stats = ref_stats
      && W.assignment t_new = W.assignment t_ref
      && Bytes.equal t_new.occ t_ref.occ
      && bumped = [ (ref_winner, 1) ])

(* the owner-map walk yields the full scan's plan for every (cell,
   candidate), and leaves occupancy as it found it *)
let prop_shove_plan_matches_full_scan =
  QCheck2.Test.make ~name:"owner-map shove_plan = full scan" ~count:100
    ~print:print_case gen_case (fun case ->
      let t = problem_of_case case in
      let occ0 = Bytes.copy t.occ in
      let ok = ref true in
      Array.iteri
        (fun cell (c : W.cell) ->
          for cand = 0 to Array.length c.cands - 1 do
            if cand <> c.cur then begin
              let got =
                if W.shove_plan t ~cell ~cand then Some (W.staged_plan t)
                else None
              in
              let want = reference_shove_plan t ~cell ~cand in
              if got <> want || not (Bytes.equal t.occ occ0) then ok := false
            end
          done)
        t.cells;
      !ok)

(* the packed kernels = the record-walking ones, bit for bit: on the
   case's state, with a ripple plan applied and after its revert, and on
   clones moved on their own or through set_assignment *)
let prop_kernels_match_reference =
  QCheck2.Test.make ~name:"packed kernels = record-walking kernels" ~count:60
    ~print:print_case gen_case (fun case ->
      let t = problem_of_case case in
      let r = ref_of t in
      let fresh = kernels_match r in
      let plan =
        let found = ref None in
        Array.iteri
          (fun cell (c : W.cell) ->
            for cand = 0 to Array.length c.cands - 1 do
              if
                !found = None && cand <> c.cur
                && (not (W.candidate_free t ~cell ~cand))
                && W.shove_plan t ~cell ~cand
              then found := Some (W.staged_plan t)
            done)
          t.cells;
        !found
      in
      let planned =
        match plan with
        | None -> true
        | Some plan ->
          let saved =
            List.map (fun (cell, _) -> (cell, t.cells.(cell).cur)) plan
          in
          W.apply_plan t plan;
          let applied = kernels_match r in
          W.apply_plan t saved;
          applied && kernels_match r
      in
      let greedy = W.clone t in
      ignore (S.solve ~mode:`Greedy ~max_passes:1 greedy);
      let assigned = W.clone t in
      W.set_assignment assigned (W.assignment greedy);
      let moved = W.clone t in
      let rng = Random.State.make [| Array.length t.cells |] in
      for _ = 1 to 5 do
        let n = Array.length moved.cells in
        if n > 0 then begin
          let cell = Random.State.int rng n in
          let k = Array.length moved.cells.(cell).cands in
          let cand = Random.State.int rng k in
          if W.candidate_free moved ~cell ~cand then W.apply moved ~cell ~cand
        end
      done;
      fresh && planned
      && kernels_match { r with t = assigned }
      && kernels_match { r with t = moved }
      && kernels_match r)

(* --- the state invariant ---

   Occupancy, the owner map and the pins' current coordinates are
   updated incrementally; here they are rebuilt from every cell's
   candidate and compared. The owner-map rebuild is a plain paint of
   every footprint, which is what the incremental map must equal: lift
   clears only the sites the moving cell still owns, and that is exact
   because every plan and every assignment moves each cell at most once
   and ends with no overlap. A site another cell moved onto before this
   one left is the other cell's in the end state, and every site this
   cell leaves that nobody moved onto is still its own when it lifts. *)

let state_matches (t : W.t) =
  let occ = Bytes.copy t.fixed_occ in
  let owner = Array.make (t.bw * t.bh) (-1) in
  Array.iteri
    (fun cell (c : W.cell) ->
      let cand = c.cands.(c.cur) in
      for s = cand.site to cand.site + c.width - 1 do
        let i = occ_idx t ~site:s ~row:cand.row in
        Bytes.set occ i (Char.chr (Char.code (Bytes.get occ i) + 1));
        owner.(i) <- cell
      done)
    t.cells;
  let pins_ok = ref true in
  for q = 0 to (Array.length t.pins / W.pin_stride) - 1 do
    let k = q * W.pin_stride in
    let cell = t.pins.(k) in
    if cell >= 0 then begin
      let c = t.cells.(cell) in
      for f = 0 to 3 do
        let at = (c.cur * c.npins * 4) + t.pins.(k + 1) + f in
        if t.pins.(k + 2 + f) <> c.xy.(at) then pins_ok := false
      done
    end
  done;
  Bytes.equal occ t.occ && owner = t.owner && !pins_ok
  && Bytes.for_all (fun ch -> Char.code ch <= 1) t.occ

let snapshot (t : W.t) =
  (W.assignment t, Bytes.copy t.occ, Array.copy t.owner, Array.copy t.pins)

type op =
  | Move of int * int  (** a cell and a candidate, taken modulo *)
  | Plan of int * int * bool  (** shove, apply, revert when true *)
  | Kept_plan of int * int  (** shove, keep, apply the kept plan *)
  | Assign  (** set_assignment to the state before the last op *)
  | Exact_clone  (** exact on a clone, when admissible *)

let gen_ops =
  QCheck2.Gen.(
    list_size (int_range 1 25)
      (oneof
         [
           map2 (fun a b -> Move (a, b)) nat nat;
           map3 (fun a b r -> Plan (a, b, r)) nat nat bool;
           map2 (fun a b -> Kept_plan (a, b)) nat nat;
           pure Assign;
           pure Exact_clone;
         ]))

let prop_state_invariant =
  QCheck2.Test.make ~name:"owner map, occupancy and pins = rebuild" ~count:80
    ~print:(fun (case, _) -> print_case case)
    QCheck2.Gen.(pair gen_case gen_ops)
    (fun (case, ops) ->
      let t = problem_of_case case in
      let n = Array.length t.cells in
      let pick a b =
        let cell = a mod n in
        (cell, b mod Array.length t.cells.(cell).cands)
      in
      let previous = ref (W.assignment t) in
      let ok = ref (state_matches t) in
      List.iter
        (fun op ->
          let before = W.assignment t in
          (match op with
          | _ when n = 0 -> ()
          | Move (a, b) ->
            let cell, cand = pick a b in
            if W.candidate_free t ~cell ~cand then W.apply t ~cell ~cand
          | Plan (a, b, revert) ->
            let cell, cand = pick a b in
            if W.shove_plan t ~cell ~cand then begin
              let plan = W.staged_plan t in
              let saved =
                List.map (fun (cell, _) -> (cell, t.cells.(cell).cur)) plan
              in
              W.apply_plan t plan;
              if not (state_matches t) then ok := false;
              if revert then W.apply_plan t saved
            end
          | Kept_plan (a, b) ->
            let cell, cand = pick a b in
            if W.shove_plan t ~cell ~cand then begin
              W.keep_plan t;
              ignore (W.plan_delta t);
              ignore (W.apply_kept_plan t)
            end
          | Assign -> W.set_assignment t !previous
          | Exact_clone ->
            if Array.length t.cells <= 6 && S.exact_search_space t <= 50_000
            then begin
              let before = snapshot t in
              let c = W.clone t in
              ignore (S.exact c);
              if not (state_matches c && snapshot t = before) then ok := false
            end);
          previous := before;
          if not (state_matches t) then ok := false)
        ops;
      (* a clone's moves leave the original as it was *)
      let before = snapshot t in
      let c = W.clone t in
      ignore (S.solve ~mode:`Greedy ~max_passes:1 c);
      !ok && state_matches c && snapshot t = before)

(* --- window-cache key equivalence --- *)

(* [pairs] are (wkey3, current) keys of the same problems: the two keys
   draw the same equality classes iff each maps functionally onto the
   other *)
let same_classes pairs =
  let fwd = Hashtbl.create 64 and bwd = Hashtbl.create 64 in
  let functional tbl a b =
    match Hashtbl.find_opt tbl a with
    | Some b' -> String.equal b b'
    | None ->
      Hashtbl.add tbl a b;
      true
  in
  List.for_all (fun (o, n) -> functional fwd o n && functional bwd n o) pairs

let both_keys modes ts =
  List.concat_map
    (fun mode ->
      List.map (fun t -> (reference_key ~mode t, Vm1.Wcache.key ~mode t)) ts)
    modes

let with_cell (t : W.t) i f =
  { t with cells = Array.mapi (fun j c -> if j = i then f c else c) t.cells }

(* single-field edits of [t]: first those the wkey3 key tells apart
   from it — the architecture flag, a candidate's site, row or
   orientation, a non-zero (and a negative-zero) candidate cost, and
   the cell's master; then two that may collide — a cell given the
   master of the last cell, and the last two cells trading masters *)
let edits (t : W.t) =
  let design = t.placement.Place.Placement.design in
  let master_name inst =
    (Netlist.Design.instance_master design inst).Pdk.Stdcell.name
  in
  let n = Array.length t.cells in
  let arch = { t with is_open = not t.is_open } in
  if n = 0 then ([ arch ], [])
  else
    let c0 = t.cells.(0) in
    let cand_edit f =
      with_cell t 0 (fun c ->
          let cands = Array.copy c.cands in
          let k = Array.length cands - 1 in
          cands.(k) <- f cands.(k);
          { c with cands })
    in
    let cost v =
      with_cell t 0 (fun c ->
          let cand_cost = Array.copy c.cand_cost in
          cand_cost.(0) <- v;
          { c with cand_cost })
    in
    let other_master =
      let m = master_name c0.inst in
      let found = ref None in
      Array.iteri
        (fun i _ ->
          if !found = None && not (String.equal (master_name i) m) then
            found := Some i)
        design.Netlist.Design.instances;
      Option.map (fun inst -> with_cell t 0 (fun c -> { c with inst })) !found
    in
    let repeat_master =
      if n < 2 then []
      else
        let last = t.cells.(n - 1) and prev = t.cells.(n - 2) in
        [
          with_cell t 0 (fun c -> { c with inst = last.inst });
          with_cell
            (with_cell t (n - 1) (fun c -> { c with inst = prev.inst }))
            (n - 2)
            (fun c -> { c with inst = last.inst });
        ]
    in
    ( [
        arch;
        cand_edit (fun c -> { c with site = c.site + 1 });
        cand_edit (fun c -> { c with row = c.row + 1 });
        cand_edit (fun c -> { c with orient = Geom.Orient.flip_y c.orient });
        cost (if c0.cand_cost.(0) = 0.5 then 0.25 else 0.5);
        cost (-0.0);
      ]
      @ Option.to_list other_master,
      repeat_master )

(* on the shared generator: the case, a second extraction of it, its
   translated copy and its single-field edits, keyed under two solver
   modes, fall into the same classes under both keys; and every
   separating edit separates from the case *)
let prop_key_classes_match_wkey3 =
  QCheck2.Test.make ~name:"window key classes = wkey3 classes" ~count:150
    ~print:(fun (case, (dx, dy)) ->
      Printf.sprintf "%s shift=(%d,%d)" (print_case case) dx dy)
    QCheck2.Gen.(pair gen_case (pair (int_range 0 5) (int_range 0 2)))
    (fun (case, shift) ->
      let t = problem_of_case case in
      let separating, others = edits t in
      let k = Vm1.Wcache.key ~mode:`Greedy t in
      List.for_all
        (fun e -> not (String.equal k (Vm1.Wcache.key ~mode:`Greedy e)))
        separating
      && same_classes
           (both_keys [ `Greedy; `Portfolio ]
              (t :: problem_of_case case :: problem_of_case ~shift case
              :: (separating @ others))))

(* on real windows: every window of the m0 and aes placements under
   three window grids and a flip-only pass, fresh and after a greedy
   pass, with and without a translation-variant candidate cost, next to
   the windows of the same placements translated by whole sites and
   rows; the classes must match, and translation must make collisions
   for the check to bite *)
let test_real_window_classes () =
  let keys = ref [] and n = ref 0 in
  List.iter
    (fun (p, params) ->
      List.iter
        (fun (bw, bh, tx, lx, ly, cost) ->
          let candidate_cost =
            if cost then Some (fun ~site ~row:_ -> float_of_int (site mod 3))
            else None
          in
          (* the windows of [p], extracted from [p] translated by (dx, dy)
             at their translated origins; no displacement range is
             Algorithm 1's flip-only pass *)
          let allow_move = lx > 0 || ly > 0 in
          let windows ~dx ~dy =
            let q = translate p ~dx ~dy in
            Array.to_list (Vm1.Window.partition p ~tx ~ty:0 ~bw ~bh)
            |> List.map (fun (w : Vm1.Window.t) ->
                   W.extract ?candidate_cost q params ~site_lo:(w.site_lo + dx)
                     ~row_lo:(w.row_lo + dy) ~bw:w.bw ~bh:w.bh
                     ~movable:w.movable ~lx ~ly ~allow_flip:true ~allow_move)
          in
          let fresh = windows ~dx:0 ~dy:0 in
          let solved =
            List.map
              (fun t ->
                let t = W.clone t in
                ignore (S.solve ~mode:`Greedy ~max_passes:1 t);
                t)
              fresh
          in
          let ts =
            fresh @ solved @ windows ~dx:3 ~dy:0 @ windows ~dx:2 ~dy:1
          in
          n := !n + List.length ts;
          keys := both_keys [ `Greedy ] ts @ !keys)
        [
          (14, 2, 0, 2, 1, false);
          (20, 3, 7, 3, 1, false);
          (40, 6, 0, 1, 0, true);
          (40, 6, 0, 0, 0, false);
        ])
    (Lazy.force placements);
  Alcotest.(check bool) "same classes" true (same_classes !keys);
  let distinct = Hashtbl.create 64 in
  List.iter (fun (_, k) -> Hashtbl.replace distinct k ()) !keys;
  Alcotest.(check bool) "translated windows collide" true
    (Hashtbl.length distinct < !n)

(* --- the pinned jpeg/4 profile --- *)

let test_jpeg4_profile () =
  let p0 =
    Report.Flow.prepare ~scale:4 Netlist.Designs.Jpeg Pdk.Cell_arch.Closed_m1
  in
  let params = Vm1.Params.default p0.Place.Placement.tech in
  let cache = Vm1.Wcache.create () in
  let cfg =
    {
      Vm1.Dist_opt.tx = 0;
      ty = 0;
      bw = 40;
      bh = 6;
      lx = 3;
      ly = 1;
      allow_flip = false;
      allow_move = true;
      mode = `Portfolio;
      parallel = false;
      candidate_cost = None;
      wcache = Some cache;
    }
  in
  let wins_before =
    List.map (fun (n, c) -> (n, Obs.Counter.value c)) win_counters
  in
  Obs.set_enabled true;
  let q_cold = Place.Placement.copy p0 and q_warm = Place.Placement.copy p0 in
  let cold, warm =
    Fun.protect
      ~finally:(fun () -> Obs.set_enabled false)
      (fun () ->
        let cold = Vm1.Dist_opt.run q_cold params cfg in
        (cold, Vm1.Dist_opt.run q_warm params cfg))
  in
  let obj = Vm1.Objective.counts params q_cold in
  let hits, misses = Vm1.Wcache.stats cache in
  let wins =
    List.map
      (fun (n, c) -> (n, Obs.Counter.value c - List.assoc n wins_before))
      win_counters
  in
  let check = Alcotest.(check int) in
  check "windows" 309 cold.windows;
  check "batches" 19 cold.batches;
  check "moves" 8082 cold.total_moves;
  check "hpwl_dbu" 35688420 obj.hpwl_dbu;
  check "alignments" 838 obj.alignments;
  Alcotest.(check (list (pair string int)))
    "portfolio wins"
    [ ("exact", 14); ("greedy", 228); ("anneal", 67) ]
    wins;
  check "wcache hits" 309 hits;
  check "wcache misses" 309 misses;
  Alcotest.(check bool) "warm stats = cold stats" true (warm = cold);
  Alcotest.(check bool) "warm placement = cold placement" true
    (q_warm.xs = q_cold.xs && q_warm.ys = q_cold.ys
    && q_warm.orients = q_cold.orients)

let () =
  Alcotest.run "portfolio_oracle"
    [
      ( "oracles",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_portfolio_matches_reference;
            prop_kernels_match_reference;
            prop_shove_plan_matches_full_scan;
            prop_state_invariant;
            prop_key_classes_match_wkey3;
          ] );
      ( "pinned",
        [
          Alcotest.test_case "jpeg/4 portfolio profile" `Quick
            test_jpeg4_profile;
          Alcotest.test_case "real window key classes = wkey3 classes"
            `Quick test_real_window_classes;
        ] );
    ]
