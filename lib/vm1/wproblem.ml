type candidate = {
  site : int;
  row : int;
  orient : Geom.Orient.t;
}

type cell = {
  inst : int;
  width : int;
  npins : int;
  cands : candidate array;
  xy : int array;  (* cand -> master pin -> ax, x_lo, x_hi, y *)
  lattice : int array;  (* (orient group, row, site) -> cand, or -1 *)
  at : int array;  (* cand -> occupancy index of its first site *)
  cand_cost : float array;  (* static per-candidate penalty (congestion) *)
  mutable cur : int;
}

type scratch = {
  acc : float array;  (* the kernels' float accumulator *)
  plan : int array;  (* staged ripple plan: (cell, cand) in push order *)
  mutable plan_len : int;
  kept : int array;  (* the plan [keep_plan] saved *)
  mutable kept_len : int;
  saved : int array;  (* staged cells' candidates before [plan_delta] *)
  ids : int array;  (* a plan's affected net, then pair, ids *)
}

type t = {
  placement : Place.Placement.t;
  params : Params.t;
  is_open : bool;
  site_lo : int;
  row_lo : int;
  bw : int;
  bh : int;
  move_s : int;
  move_r : int;
  cells : cell array;
  net_weight : float array;
  net_start : int array;
  pins : int array;
  pair_pins : int array;
  cell_net_start : int array;
  cell_nets : int array;
  cell_pair_start : int array;
  cell_pairs : int array;
  cell_pin_start : int array;
  cell_pins : int array;
  occ : Bytes.t;
  owner : int array;
  fixed_occ : Bytes.t;
  scratch : scratch;
}

(* window-pin record layout: owner, slot, then the current coordinates *)
let pin_stride = 6

let max_plan_moves = 8

(* int-only max/min for [extract], which is [@vm1.hot]: [Stdlib.max] is
   polymorphic, a generic compare per call *)
let imax (a : int) b = if a >= b then a else b
let imin (a : int) b = if a <= b then a else b

(* --- occupancy; coordinates are window-local. Occupancy is a per-site
   count, so that transient overlap while a plan is applied cell by cell
   stays consistent; the owner map names the movable cell on each site. --- *)

let site_idx t ~site ~row = ((row - t.row_lo) * t.bw) + (site - t.site_lo)

let bump occ i0 width delta =
  for i = i0 to i0 + width - 1 do
    Bytes.set occ i (Char.chr (Char.code (Bytes.get occ i) + delta))
  done

(* sites [i, stop) all empty *)
let rec free_from occ i stop =
  i >= stop || (Bytes.get occ i = '\000' && free_from occ (i + 1) stop)

(* sites [i, stop) empty, or held only by the footprint [own_lo, own_hi) *)
let rec free_but_own occ i stop own_lo own_hi =
  i >= stop
  || (let n = Bytes.get occ i in
      (n = '\000' || (n = '\001' && i >= own_lo && i < own_hi))
      && free_but_own occ (i + 1) stop own_lo own_hi)

(* --- extraction ---

   Two phases. The key phase ([frame]) builds exactly what the
   window-cache key reads: fixed occupancy, every cell's candidates and
   candidate penalties, the window nets with their weights, and the pin
   records (owner, slot, a fixed pin's coordinates). The table phase
   ([tables]) derives the solver tables from a frame: candidate pin
   coordinates, the lattice, footprint indices, the pair prefilter, the
   incidence, live occupancy and scratch. A cache hit stops after the
   key phase. *)

type frame = t

(* placeholders for the fields a frame leaves to [tables]; never
   written *)
let no_cand = { site = 0; row = 0; orient = Geom.Orient.N }

let no_ints : int array = [||]

let no_cell =
  {
    inst = -1;
    width = 0;
    npins = 0;
    cands = [||];
    xy = no_ints;
    lattice = no_ints;
    at = no_ints;
    cand_cost = [||];
    cur = 0;
  }

let no_scratch =
  {
    acc = [||];
    plan = no_ints;
    plan_len = 0;
    kept = no_ints;
    kept_len = 0;
    saved = no_ints;
    ids = no_ints;
  }

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

(* CSR starts from per-row counts (held in [start.(1..n)]), in place *)
let prefix_sum start =
  for i = 1 to Array.length start - 1 do
    start.(i) <- start.(i) + start.(i - 1)
  done

let[@vm1.hot] frame ?candidate_cost ?rows (p : Place.Placement.t)
    (params : Params.t) ~site_lo ~row_lo ~bw ~bh ~movable ~lx ~ly ~allow_flip
    ~allow_move : frame =
  let design = p.design in
  let n_cells = List.length movable in
  let cell_of_inst = Hashtbl.create (2 * n_cells) in
  let movable_a = Array.make n_cells 0 in
  let rec index c = function
    | [] -> ()
    | i :: rest ->
      movable_a.(c) <- i;
      Hashtbl.replace cell_of_inst i c;
      index (c + 1) rest
  in
  index 0 movable;
  let cell_of i = try Hashtbl.find cell_of_inst i with Not_found -> -1 in
  (* fixed occupancy: every instance footprint intersecting the window,
     except the movable ones *)
  let fixed_occ = Bytes.make (bw * bh) '\000' in
  let site_hi = site_lo + bw - 1 and row_hi = row_lo + bh - 1 in
  let occ_at s r = ((r - row_lo) * bw) + (s - site_lo) in
  let mark_fixed i r =
    if not (Hashtbl.mem cell_of_inst i) then begin
      let s = Place.Placement.site_of_inst p i in
      let w =
        design.Netlist.Design.instances.(i).master.Pdk.Stdcell.width_sites
      in
      let a = imax s site_lo and b = imin (s + w - 1) site_hi in
      if a <= b then bump fixed_occ (occ_at a r) (b - a + 1) 1
    end
  in
  (match rows with
  | Some idx ->
    (* occupancy bumps are additive, so visiting by row bucket instead of
       instance id leaves the resulting map identical *)
    let rec mark_row r = function
      | [] -> ()
      | i :: rest ->
        mark_fixed i r;
        mark_row r rest
    in
    for r = imax 0 row_lo to imin (Array.length idx - 1) row_hi do
      mark_row r idx.(r)
    done
  | None ->
    for i = 0 to Array.length design.instances - 1 do
      let r = Place.Placement.row_of_inst p i in
      if r >= row_lo && r <= row_hi then mark_fixed i r
    done);
  (* candidate generation: orientation groups (the input one, then its
     flip), site offsets, row offsets, each range clipped to the window
     and the die; candidate 0 is the input position *)
  let move_s = if allow_move then lx else 0 in
  let move_r = if allow_move then ly else 0 in
  let n_groups = if allow_flip then 2 else 1 in
  let s_first = imax site_lo 0
  and s_last = imin site_hi (p.sites_per_row - 1) in
  let r_first = imax row_lo 0 and r_last = imin row_hi (p.num_rows - 1) in
  let found =
    Array.make (n_groups * ((2 * move_s) + 1) * ((2 * move_r) + 1)) no_cand
  in
  let n_cands = ref 0 in
  let cells = Array.make n_cells no_cell in
  for c = 0 to n_cells - 1 do
    let inst_id = movable_a.(c) in
    let master = design.Netlist.Design.instances.(inst_id).master in
    let w = master.Pdk.Stdcell.width_sites in
    let s0 = Place.Placement.site_of_inst p inst_id in
    let r0 = Place.Placement.row_of_inst p inst_id in
    let o0 = p.orients.(inst_id) in
    found.(0) <- { site = s0; row = r0; orient = o0 };
    n_cands := 1;
    let ds_lo = imax (-move_s) (s_first - s0)
    and ds_hi = imin move_s (s_last - w + 1 - s0) in
    let dr_lo = imax (-move_r) (r_first - r0)
    and dr_hi = imin move_r (r_last - r0) in
    for g = 0 to n_groups - 1 do
      let orient = if g = 0 then o0 else Geom.Orient.flip_y o0 in
      for ds = ds_lo to ds_hi do
        for dr = dr_lo to dr_hi do
          let i = occ_at (s0 + ds) (r0 + dr) in
          if (g > 0 || ds <> 0 || dr <> 0) && free_from fixed_occ i (i + w)
          then begin
            found.(!n_cands) <- { site = s0 + ds; row = r0 + dr; orient };
            n_cands := !n_cands + 1
          end
        done
      done
    done;
    let cands = Array.make !n_cands no_cand in
    Array.blit found 0 cands 0 !n_cands;
    let cand_cost = Array.make !n_cands 0.0 in
    (match candidate_cost with
    | None -> ()
    | Some f ->
      for k = 0 to !n_cands - 1 do
        cand_cost.(k) <- f ~site:cands.(k).site ~row:cands.(k).row
      done);
    cells.(c) <-
      {
        no_cell with
        inst = inst_id;
        width = w;
        npins = List.length master.Pdk.Stdcell.pins;
        cands;
        cand_cost;
      }
  done;
  (* nets touching movable cells, ascending id: the net order fixes the
     float-summation order of the objective, which must be
     byte-reproducible. They are marked in a byte map over their id
     range, which is read back in order. *)
  let n_slots = ref 0 in
  for c = 0 to n_cells - 1 do
    n_slots := !n_slots + cells.(c).npins
  done;
  let net_ids = Array.make !n_slots 0 in
  let n_found = ref 0 in
  let lo = ref max_int and hi = ref min_int in
  for c = 0 to n_cells - 1 do
    let pin_nets = design.instances.(cells.(c).inst).pin_nets in
    for j = 0 to Array.length pin_nets - 1 do
      let n = pin_nets.(j) in
      if n >= 0 then begin
        let net = design.nets.(n) in
        if (not net.is_clock) && Array.length net.pins >= 2 then begin
          net_ids.(!n_found) <- n;
          n_found := !n_found + 1;
          lo := imin !lo n;
          hi := imax !hi n
        end
      end
    done
  done;
  let seen = Bytes.make (imax 0 (!hi - !lo + 1)) '\000' in
  for i = 0 to !n_found - 1 do
    Bytes.set seen (net_ids.(i) - !lo) '\001'
  done;
  let n_nets = ref 0 in
  for i = 0 to Bytes.length seen - 1 do
    if Bytes.get seen i <> '\000' then begin
      net_ids.(!n_nets) <- !lo + i;
      n_nets := !n_nets + 1
    end
  done;
  let n_nets = !n_nets in
  (* the pin records, net by net; a movable pin's coordinates are left
     to [tables] *)
  let net_start = Array.make (n_nets + 1) 0 in
  for n = 0 to n_nets - 1 do
    net_start.(n + 1) <-
      net_start.(n) + Array.length design.nets.(net_ids.(n)).pins
  done;
  let pins = Array.make (net_start.(n_nets) * pin_stride) 0 in
  let net_weight = Array.make n_nets 0.0 in
  for n = 0 to n_nets - 1 do
    net_weight.(n) <- Params.net_weight params net_ids.(n);
    let net_pins = design.nets.(net_ids.(n)).pins in
    for j = 0 to Array.length net_pins - 1 do
      let pr = net_pins.(j) in
      let k = (net_start.(n) + j) * pin_stride in
      let c = cell_of pr.inst in
      pins.(k) <- c;
      pins.(k + 1) <- 4 * pr.pin;
      if c < 0 then begin
        let g : Align.pin_geom = Align.of_placed p pr in
        pins.(k + 2) <- g.ax;
        pins.(k + 3) <- g.x_lo;
        pins.(k + 4) <- g.x_hi;
        pins.(k + 5) <- g.y
      end
    done
  done;
  {
    placement = p;
    params;
    is_open = p.tech.Pdk.Tech.arch = Pdk.Cell_arch.Open_m1;
    site_lo;
    row_lo;
    bw;
    bh;
    move_s;
    move_r;
    cells;
    net_weight;
    net_start;
    pins;
    pair_pins = no_ints;
    cell_net_start = no_ints;
    cell_nets = no_ints;
    cell_pair_start = no_ints;
    cell_pairs = no_ints;
    cell_pin_start = no_ints;
    cell_pins = no_ints;
    occ = Bytes.empty;
    owner = no_ints;
    fixed_occ;
    scratch = no_scratch;
  }

let[@vm1.hot] tables (f : frame) : t =
  let p = f.placement in
  let tech = p.tech in
  let sw = tech.Pdk.Tech.site_width and rh = tech.Pdk.Tech.row_height in
  let bw = f.bw and bh = f.bh in
  let move_s = f.move_s and move_r = f.move_r in
  let span_s = (2 * move_s) + 1 and span_r = (2 * move_r) + 1 in
  let n_cells = Array.length f.cells in
  (* per cell: the lattice, the candidates' pin coordinates and
     footprint indices, all derived from the candidate list. Placed pin
     geometry is affine in the cell origin, so the master's shapes are
     walked once per orientation (at site/row 0) and every candidate's
     coordinates are a translation of that base. *)
  let cells = Array.make n_cells no_cell in
  for c = 0 to n_cells - 1 do
    let cell = f.cells.(c) in
    let cands = cell.cands and npins = cell.npins in
    let n_cands = Array.length cands in
    let c0 = cands.(0) in
    let flipped0 = Geom.Orient.is_flipped c0.orient in
    (* orientation group 0 is candidate 0's orientation, group 1 its
       flip *)
    let n_groups = ref 1 in
    for k = 1 to n_cands - 1 do
      if not (Bool.equal (Geom.Orient.is_flipped cands.(k).orient) flipped0)
      then n_groups := 2
    done;
    let n_groups = !n_groups in
    let block = npins * 4 in
    let base = Array.make (n_groups * block) 0 in
    for g = 0 to n_groups - 1 do
      let orient = if g = 0 then c0.orient else Geom.Orient.flip_y c0.orient in
      for j = 0 to npins - 1 do
        let b : Align.pin_geom =
          Align.of_candidate p
            { Netlist.Design.inst = cell.inst; pin = j }
            ~site:0 ~row:0 ~orient
        in
        let o = (g * block) + (j * 4) in
        base.(o) <- b.ax;
        base.(o + 1) <- b.x_lo;
        base.(o + 2) <- b.x_hi;
        base.(o + 3) <- b.y
      done
    done;
    let lattice = Array.make (n_groups * span_r * span_s) (-1) in
    let xy = Array.make (n_cands * block) 0 in
    let at = Array.make n_cands 0 in
    for k = 0 to n_cands - 1 do
      let cand = cands.(k) in
      let g =
        if Bool.equal (Geom.Orient.is_flipped cand.orient) flipped0 then 0
        else 1
      in
      lattice.((((g * span_r) + cand.row - c0.row + move_r) * span_s)
               + cand.site - c0.site + move_s) <- k;
      let dx = cand.site * sw and dy = cand.row * rh in
      for o = 0 to block - 1 do
        xy.((k * block) + o) <-
          base.((g * block) + o) + if o land 3 = 3 then dy else dx
      done;
      at.(k) <- site_idx f ~site:cand.site ~row:cand.row
    done;
    cells.(c) <- { cell with xy; lattice; at }
  done;
  (* a movable pin starts at its owner's candidate 0 *)
  let pins = f.pins and net_start = f.net_start in
  let n_nets = Array.length f.net_weight in
  let n_pins = net_start.(n_nets) in
  for q = 0 to n_pins - 1 do
    let k = q * pin_stride in
    let c = pins.(k) in
    if c >= 0 then Array.blit cells.(c).xy pins.(k + 1) pins (k + 2) 4
  done;
  (* pair prefilter: keep pairs that can satisfy the dM1 predicate under
     some candidate combination, judged on each pin's envelope over its
     owner's candidates: ax, x_lo, y minima and ax, x_hi, y maxima *)
  let env = Array.make (n_pins * 6) 0 in
  for q = 0 to n_pins - 1 do
    let k = q * pin_stride and e = q * 6 in
    let c = pins.(k) in
    if c < 0 then begin
      env.(e) <- pins.(k + 2);
      env.(e + 1) <- pins.(k + 2);
      env.(e + 2) <- pins.(k + 3);
      env.(e + 3) <- pins.(k + 4);
      env.(e + 4) <- pins.(k + 5);
      env.(e + 5) <- pins.(k + 5)
    end
    else begin
      let cell = cells.(c) in
      env.(e) <- max_int;
      env.(e + 1) <- min_int;
      env.(e + 2) <- max_int;
      env.(e + 3) <- min_int;
      env.(e + 4) <- max_int;
      env.(e + 5) <- min_int;
      for cand = 0 to Array.length cell.cands - 1 do
        let o = (cand * cell.npins * 4) + pins.(k + 1) in
        let ax = cell.xy.(o) and y = cell.xy.(o + 3) in
        if ax < env.(e) then env.(e) <- ax;
        if ax > env.(e + 1) then env.(e + 1) <- ax;
        if cell.xy.(o + 1) < env.(e + 2) then env.(e + 2) <- cell.xy.(o + 1);
        if cell.xy.(o + 2) > env.(e + 3) then env.(e + 3) <- cell.xy.(o + 2);
        if y < env.(e + 4) then env.(e + 4) <- y;
        if y > env.(e + 5) then env.(e + 5) <- y
      done
    end
  done;
  let params = f.params in
  let feasible_pair a b =
    let ea = a * 6 and eb = b * 6 in
    let dy_min =
      imax 0 (imax (env.(ea + 4) - env.(eb + 5)) (env.(eb + 4) - env.(ea + 5)))
    in
    if f.is_open then
      imin env.(ea + 3) env.(eb + 3) - imax env.(ea + 2) env.(eb + 2)
      >= params.Params.delta
      && dy_min <= params.Params.gamma * rh
    else
      imax env.(ea) env.(eb) <= imin env.(ea + 1) env.(eb + 1)
      && dy_min <= params.Params.closed_gamma * rh
  in
  let max_pairs = ref 0 in
  for n = 0 to n_nets - 1 do
    let k = net_start.(n + 1) - net_start.(n) in
    max_pairs := !max_pairs + (k * (k - 1) / 2)
  done;
  let found = Array.make (2 * !max_pairs) 0 in
  let n_pairs = ref 0 in
  for n = 0 to n_nets - 1 do
    for a = net_start.(n) to net_start.(n + 1) - 2 do
      for b = a + 1 to net_start.(n + 1) - 1 do
        (* two pins of different instances, one of them movable: the
           owners differ, and a fixed pin is never a movable cell's *)
        let ca = pins.(a * pin_stride) and cb = pins.(b * pin_stride) in
        if ca <> cb && (ca >= 0 || cb >= 0) && feasible_pair a b then begin
          found.(2 * !n_pairs) <- a;
          found.((2 * !n_pairs) + 1) <- b;
          n_pairs := !n_pairs + 1
        end
      done
    done
  done;
  (* pairs are stored newest first, the order the objective sums them in *)
  let n_pairs = !n_pairs in
  let pair_pins = Array.make (2 * n_pairs) 0 in
  for q = 0 to n_pairs - 1 do
    Array.blit found (2 * q) pair_pins (2 * (n_pairs - 1 - q)) 2
  done;
  (* per-cell incidence in CSR form, each row newest first: a cell's nets
     and pairs in descending id order, the order local_cost sums them in.
     [last] keeps a cell listed once per net. *)
  let cell_net_start = Array.make (n_cells + 1) 0 in
  let cell_pair_start = Array.make (n_cells + 1) 0 in
  let cell_pin_start = Array.make (n_cells + 1) 0 in
  let last = Array.make n_cells (-1) in
  for n = 0 to n_nets - 1 do
    for q = net_start.(n) to net_start.(n + 1) - 1 do
      let c = pins.(q * pin_stride) in
      if c >= 0 then begin
        cell_pin_start.(c + 1) <- cell_pin_start.(c + 1) + 1;
        if last.(c) <> n then begin
          last.(c) <- n;
          cell_net_start.(c + 1) <- cell_net_start.(c + 1) + 1
        end
      end
    done
  done;
  for q = 0 to n_pairs - 1 do
    let ca = pins.(pair_pins.(2 * q) * pin_stride)
    and cb = pins.(pair_pins.((2 * q) + 1) * pin_stride) in
    if ca >= 0 then cell_pair_start.(ca + 1) <- cell_pair_start.(ca + 1) + 1;
    if cb >= 0 && cb <> ca then
      cell_pair_start.(cb + 1) <- cell_pair_start.(cb + 1) + 1
  done;
  prefix_sum cell_net_start;
  prefix_sum cell_pair_start;
  prefix_sum cell_pin_start;
  let cell_nets = Array.make cell_net_start.(n_cells) 0 in
  let cell_pairs = Array.make cell_pair_start.(n_cells) 0 in
  let cell_pins = Array.make cell_pin_start.(n_cells) 0 in
  let fill = Array.make n_cells 0 in
  Array.blit cell_net_start 0 fill 0 n_cells;
  Array.fill last 0 n_cells (-1);
  for n = n_nets - 1 downto 0 do
    for q = net_start.(n) to net_start.(n + 1) - 1 do
      let c = pins.(q * pin_stride) in
      if c >= 0 && last.(c) <> n then begin
        last.(c) <- n;
        cell_nets.(fill.(c)) <- n;
        fill.(c) <- fill.(c) + 1
      end
    done
  done;
  Array.blit cell_pair_start 0 fill 0 n_cells;
  for q = n_pairs - 1 downto 0 do
    let ca = pins.(pair_pins.(2 * q) * pin_stride)
    and cb = pins.(pair_pins.((2 * q) + 1) * pin_stride) in
    if ca >= 0 then begin
      cell_pairs.(fill.(ca)) <- q;
      fill.(ca) <- fill.(ca) + 1
    end;
    if cb >= 0 && cb <> ca then begin
      cell_pairs.(fill.(cb)) <- q;
      fill.(cb) <- fill.(cb) + 1
    end
  done;
  Array.blit cell_pin_start 0 fill 0 n_cells;
  for q = 0 to n_pins - 1 do
    let c = pins.(q * pin_stride) in
    if c >= 0 then begin
      cell_pins.(fill.(c)) <- q;
      fill.(c) <- fill.(c) + 1
    end
  done;
  (* live occupancy = fixed + movable current footprints *)
  let occ = Bytes.copy f.fixed_occ in
  let owner = Array.make (bw * bh) (-1) in
  let max_incidence = ref 0 in
  for c = 0 to n_cells - 1 do
    let i0 = cells.(c).at.(0) in
    bump occ i0 cells.(c).width 1;
    Array.fill owner i0 cells.(c).width c;
    max_incidence :=
      imax !max_incidence
        (cell_net_start.(c + 1) - cell_net_start.(c)
        + cell_pair_start.(c + 1) - cell_pair_start.(c))
  done;
  {
    f with
    cells;
    pair_pins;
    cell_net_start;
    cell_nets;
    cell_pair_start;
    cell_pairs;
    cell_pin_start;
    cell_pins;
    occ;
    owner;
    scratch =
      {
        acc = Array.make 1 0.0;
        plan = Array.make (2 * max_plan_moves) 0;
        plan_len = 0;
        kept = Array.make (2 * max_plan_moves) 0;
        kept_len = 0;
        saved = Array.make max_plan_moves 0;
        ids = Array.make (max_plan_moves * !max_incidence) 0;
      };
  }

let[@vm1.hot] extract ?candidate_cost ?rows p params ~site_lo ~row_lo ~bw ~bh
    ~movable ~lx ~ly ~allow_flip ~allow_move =
  tables
    (frame ?candidate_cost ?rows p params ~site_lo ~row_lo ~bw ~bh ~movable
       ~lx ~ly ~allow_flip ~allow_move)

(* --- evaluation ---

   The kernels read pin coordinates as if [cell] sat at the candidate
   whose block starts at [cb] in its [xy], every other cell at its
   current candidate; [cell] = [no_cell] reads the current state. Window
   pin [q]'s record starts at [q * pin_stride]. *)

(* no pin's owner: movable cells are >= 0, fixed pins -1 *)
let no_cell = -2

let[@inline] coord pins xy cell cb k f =
  if pins.(k) = cell then xy.(cb + pins.(k + 1) + f) else pins.(k + 2 + f)

(* half-perimeter of the window pins [i, stop): a top-level tail-recursive
   walk, so the bounding box stays in registers and nothing is
   allocated *)
let rec span pins xy cell cb i stop xmin xmax ymin ymax =
  if i = stop then xmax - xmin + (ymax - ymin)
  else begin
    let k = i * pin_stride in
    let ax = coord pins xy cell cb k 0 and y = coord pins xy cell cb k 3 in
    span pins xy cell cb (i + 1) stop
      (if ax < xmin then ax else xmin)
      (if ax > xmax then ax else xmax)
      (if y < ymin then y else ymin)
      (if y > ymax then y else ymax)
  end

let net_hpwl t xy cell cb n =
  span t.pins xy cell cb t.net_start.(n) t.net_start.(n + 1) max_int min_int
    max_int min_int

let[@inline] net_cost t xy cell cb n =
  t.params.Params.beta *. t.net_weight.(n)
  *. float_of_int (net_hpwl t xy cell cb n)

let[@inline] pair_gain t xy cell cb q =
  let pins = t.pins and params = t.params in
  let tech = t.placement.Place.Placement.tech in
  let a = t.pair_pins.(2 * q) * pin_stride
  and b = t.pair_pins.((2 * q) + 1) * pin_stride in
  if t.is_open then
    Align.open_gain params
      (Align.overlap_xy params tech ~lo1:(coord pins xy cell cb a 1)
         ~hi1:(coord pins xy cell cb a 2) ~y1:(coord pins xy cell cb a 3)
         ~lo2:(coord pins xy cell cb b 1) ~hi2:(coord pins xy cell cb b 2)
         ~y2:(coord pins xy cell cb b 3))
  else
    Align.closed_gain params
      (Align.aligned_xy params tech ~ax1:(coord pins xy cell cb a 0)
         ~y1:(coord pins xy cell cb a 3) ~ax2:(coord pins xy cell cb b 0)
         ~y2:(coord pins xy cell cb b 3))

let no_xy = [||]

let num_pairs t = Array.length t.pair_pins / 2

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
  for n = 0 to Array.length t.net_weight - 1 do
    hpwl := !hpwl + net_hpwl t no_xy no_cell 0 n
  done;
  let tech = t.placement.Place.Placement.tech in
  let alignments = ref 0 and overlap_sum = ref 0 in
  let pins = t.pins in
  for q = 0 to num_pairs t - 1 do
    let a = t.pair_pins.(2 * q) * pin_stride
    and b = t.pair_pins.((2 * q) + 1) * pin_stride in
    if t.is_open then begin
      let o =
        Align.overlap_xy t.params tech ~lo1:pins.(a + 3) ~hi1:pins.(a + 4)
          ~y1:pins.(a + 5) ~lo2:pins.(b + 3) ~hi2:pins.(b + 4) ~y2:pins.(b + 5)
      in
      if o >= 0 then begin
        incr alignments;
        overlap_sum := !overlap_sum + o
      end
    end
    else if
      Align.aligned_xy t.params tech ~ax1:pins.(a + 2) ~y1:pins.(a + 5)
        ~ax2:pins.(b + 2) ~y2:pins.(b + 5)
    then incr alignments
  done;
  { hpwl_dbu = !hpwl; alignments = !alignments; overlap_sum = !overlap_sum }

let objective t =
  let total = ref 0.0 in
  Array.iter (fun (c : cell) -> total := !total +. c.cand_cost.(c.cur)) t.cells;
  for n = 0 to Array.length t.net_weight - 1 do
    total := !total +. net_cost t no_xy no_cell 0 n
  done;
  for q = 0 to num_pairs t - 1 do
    total := !total -. pair_gain t no_xy no_cell 0 q
  done;
  !total

(* A site counts as free when empty, or held once inside the cell's own
   current footprint: the cell never blocks its own move. *)
let[@vm1.hot] candidate_free t ~cell ~cand =
  let c = t.cells.(cell) in
  let i0 = c.at.(cand) and own = c.at.(c.cur) in
  free_but_own t.occ i0 (i0 + c.width) own (own + c.width)

(* Sums cand_cost, then the cell's nets, then its pairs, in incidence
   order. Placements and solver statistics depend on these floats, so the
   order is fixed: equal states give bit-identical costs. *)
let[@vm1.hot] local_cost t ~cell ~cand =
  let c = t.cells.(cell) in
  let xy = c.xy and cb = cand * c.npins * 4 in
  let acc = t.scratch.acc in
  acc.(0) <- c.cand_cost.(cand);
  for i = t.cell_net_start.(cell) to t.cell_net_start.(cell + 1) - 1 do
    acc.(0) <- acc.(0) +. net_cost t xy cell cb t.cell_nets.(i)
  done;
  for i = t.cell_pair_start.(cell) to t.cell_pair_start.(cell + 1) - 1 do
    acc.(0) <- acc.(0) -. pair_gain t xy cell cb t.cell_pairs.(i)
  done;
  acc.(0)

let[@vm1.hot] move_delta t ~cell ~cand =
  local_cost t ~cell ~cand -. local_cost t ~cell ~cand:t.cells.(cell).cur

(* Objective credit of [cell]'s pairs if it sat at [cand]: used to decide
   which blocked candidates are worth a shove attempt. *)
let[@vm1.hot] cell_pair_gain_at t ~cell ~cand =
  let c = t.cells.(cell) in
  let xy = c.xy and cb = cand * c.npins * 4 in
  let acc = t.scratch.acc in
  acc.(0) <- 0.0;
  for i = t.cell_pair_start.(cell) to t.cell_pair_start.(cell + 1) - 1 do
    acc.(0) <- acc.(0) +. pair_gain t xy cell cb t.cell_pairs.(i)
  done;
  acc.(0)

(* --- moves. [lift]/[drop] remove or add a cell's current footprint;
   [set_cur] changes its candidate and its pins' current coordinates.

   The owner map stays exact although [lift] clears only the sites the
   cell still owns: every plan and assignment moves each cell at most
   once, and its end state has no overlap, so a site another cell moved
   onto before this one left keeps its new owner. --- *)

let lift t ~cell =
  let c = t.cells.(cell) in
  let i0 = c.at.(c.cur) in
  bump t.occ i0 c.width (-1);
  for i = i0 to i0 + c.width - 1 do
    if t.owner.(i) = cell then t.owner.(i) <- -1
  done

let drop t ~cell =
  let c = t.cells.(cell) in
  let i0 = c.at.(c.cur) in
  bump t.occ i0 c.width 1;
  Array.fill t.owner i0 c.width cell

let set_cur t ~cell ~cand =
  let c = t.cells.(cell) in
  c.cur <- cand;
  let cb = cand * c.npins * 4 in
  for i = t.cell_pin_start.(cell) to t.cell_pin_start.(cell + 1) - 1 do
    let k = t.cell_pins.(i) * pin_stride in
    Array.blit c.xy (cb + t.pins.(k + 1)) t.pins (k + 2) 4
  done

let footprint_free_at t ~cell ~cand =
  let c = t.cells.(cell) in
  free_from t.occ c.at.(cand) (c.at.(cand) + c.width)

let apply t ~cell ~cand =
  lift t ~cell;
  set_cur t ~cell ~cand;
  drop t ~cell

let commit t =
  Array.iter
    (fun c ->
      let cand = c.cands.(c.cur) in
      Place.Placement.move t.placement c.inst ~site:cand.site ~row:cand.row
        ~orient:cand.orient)
    t.cells

(* a frame keeps no occupancy and no pin coordinates: only the chosen
   candidates change, for [commit] to write back *)
let replay (f : frame) a =
  if Array.length a <> Array.length f.cells then
    invalid_arg "Wproblem.replay: arity mismatch";
  Array.iteri (fun i cand -> f.cells.(i).cur <- cand) a

(* --- multi-cell plans (ripple moves) ---

   A plan is a set of (cell, candidate) moves applied together. Plans are
   how the solver reproduces the MILP's coordinated moves: to vacate a
   target footprint, same-row neighbours are pushed sideways within their
   own candidate sets (so every pushed cell still respects its
   perturbation range, the window bounds and fixed blockage). *)

let apply_plan t plan = List.iter (fun (cell, cand) -> apply t ~cell ~cand) plan

(* the candidate of cell [idx] at [site] in [row] with its current
   orientation, or -1 *)
let cand_at t idx ~site ~row =
  let c = t.cells.(idx) in
  let c0 = c.cands.(0) in
  let ds = site - c0.site + t.move_s and dr = row - c0.row + t.move_r in
  let span_s = (2 * t.move_s) + 1 and span_r = (2 * t.move_r) + 1 in
  if ds < 0 || ds >= span_s || dr < 0 || dr >= span_r then -1
  else begin
    let g =
      if
        Geom.Orient.is_flipped c.cands.(c.cur).orient
        = Geom.Orient.is_flipped c0.orient
      then 0
      else 1
    in
    c.lattice.((((g * span_r) + dr) * span_s) + ds)
  end

let stage s cell cand =
  s.plan.(2 * s.plan_len) <- cell;
  s.plan.((2 * s.plan_len) + 1) <- cand;
  s.plan_len <- s.plan_len + 1

(* The first movable cell other than [moving] met walking the owner map
   from occupancy index [i] down to [lo] (up to [hi]) that starts left of
   (at or right of) [a], or -1. *)
let rec owner_down t ~moving ~a i lo =
  if i < lo then -1
  else begin
    let o = t.owner.(i) in
    if o >= 0 && o <> moving && t.cells.(o).cands.(t.cells.(o).cur).site < a
    then o
    else owner_down t ~moving ~a (i - 1) lo
  end

let rec owner_up t ~moving ~a i hi =
  if i > hi then -1
  else begin
    let o = t.owner.(i) in
    if o >= 0 && o <> moving && t.cells.(o).cands.(t.cells.(o).cur).site >= a
    then o
    else owner_up t ~moving ~a (i + 1) hi
  end

(* Left cascade. The planned footprints start at [required]; the next
   cell to the left that reaches past it slides left to end there.
   Earlier intruders start at or right of [lim] and the state has no
   overlap, so that cell is the first one owning a site of
   [required, lim - 1] (initially: the cell covering the target's first
   site [a] from the left). The cells further left end at or before
   [required], so the cascade stops there. The scanned sites lie in
   footprints already planned, all of them candidates and so clear of
   fixed blockage. False when the plan fails: more than
   [max_plan_moves] moves, or no candidate at a slid-to site. *)
let rec shove_left t ~moving ~row ~a ~required ~lim =
  let base = site_idx t ~site:0 ~row in
  let o =
    owner_down t ~moving ~a (base + max (lim - 1) required) (base + required)
  in
  o < 0
  || begin
    let c = t.cells.(o) in
    let new_site = required - c.width in
    let k = cand_at t o ~site:new_site ~row in
    t.scratch.plan_len < max_plan_moves
    && k >= 0
    && begin
      stage t.scratch o k;
      shove_left t ~moving ~row ~a ~required:new_site
        ~lim:c.cands.(c.cur).site
    end
  end

(* Right cascade, mirrored: the next intruder is the first cell starting
   at or right of the target that owns a site of [lim, required - 1],
   where [lim] is the previous intruder's old end. *)
let rec shove_right t ~moving ~row ~a ~required ~lim =
  let base = site_idx t ~site:0 ~row in
  let o = owner_up t ~moving ~a (base + lim) (base + required - 1) in
  o < 0
  || begin
    let c = t.cells.(o) in
    let k = cand_at t o ~site:required ~row in
    t.scratch.plan_len < max_plan_moves
    && k >= 0
    && begin
      stage t.scratch o k;
      shove_right t ~moving ~row ~a ~required:(required + c.width)
        ~lim:(c.cands.(c.cur).site + c.width)
    end
  end

(* The staged footprints tile [left end, right end) without gaps or
   overlap, and every cell owning a site there is staged, so the plan
   leaves the window overlap-free; no occupancy check is needed. *)
let[@vm1.hot] shove_plan t ~cell ~cand =
  let c = t.cells.(cell) in
  let target = c.cands.(cand) in
  let s = t.scratch in
  s.plan_len <- 0;
  stage s cell cand;
  let a = target.site in
  shove_left t ~moving:cell ~row:target.row ~a ~required:a ~lim:a
  && shove_right t ~moving:cell ~row:target.row ~a ~required:(a + c.width)
       ~lim:a

let staged_plan t =
  let s = t.scratch in
  List.init s.plan_len (fun i ->
      let j = s.plan_len - 1 - i in
      (s.plan.(2 * j), s.plan.((2 * j) + 1)))

let keep_plan t =
  let s = t.scratch in
  Array.blit s.plan 0 s.kept 0 (2 * s.plan_len);
  s.kept_len <- s.plan_len

(* Newest move first, as [staged_plan] lists them; each cell moves once,
   so the end state does not depend on the order. *)
let[@vm1.hot] apply_kept_plan t =
  let s = t.scratch in
  for i = s.kept_len - 1 downto 0 do
    apply t ~cell:s.kept.(2 * i) ~cand:s.kept.((2 * i) + 1)
  done;
  s.kept_len

(* sort [ids.(lo .. hi - 1)] ascending, drop duplicates; the new end *)
let rec sift ids lo j v =
  if j > lo && ids.(j - 1) > v then begin
    ids.(j) <- ids.(j - 1);
    sift ids lo (j - 1) v
  end
  else ids.(j) <- v

let rec dedup ids i w hi =
  if i >= hi then w
  else if ids.(i) = ids.(w - 1) then dedup ids (i + 1) w hi
  else begin
    ids.(w) <- ids.(i);
    dedup ids (i + 1) (w + 1) hi
  end

let sort_unique ids lo hi =
  for i = lo + 1 to hi - 1 do
    sift ids lo i ids.(i)
  done;
  if hi > lo then dedup ids (lo + 1) (lo + 1) hi else hi

(* gather the incidence rows [start]/[row] of the staged cells from the
   [i]th on into [ids] at [w]; the end, once sorted and deduplicated *)
let rec gather t start row lo i w =
  let s = t.scratch in
  if i = s.plan_len then sort_unique s.ids lo w
  else begin
    let cell = s.plan.(2 * i) in
    let n = start.(cell + 1) - start.(cell) in
    Array.blit row start.(cell) s.ids w n;
    gather t start row lo (i + 1) (w + n)
  end

(* cand_cost over the staged cells, newest first, then the affected nets
   and pairs in ascending id order: a fixed summation order, so the delta
   is bit-reproducible *)
let eval_staged t ~nets_end ~pairs_end =
  let s = t.scratch in
  let acc = s.acc in
  acc.(0) <- 0.0;
  for i = s.plan_len - 1 downto 0 do
    let c = t.cells.(s.plan.(2 * i)) in
    acc.(0) <- acc.(0) +. c.cand_cost.(c.cur)
  done;
  for i = 0 to nets_end - 1 do
    acc.(0) <- acc.(0) +. net_cost t no_xy no_cell 0 s.ids.(i)
  done;
  for i = nets_end to pairs_end - 1 do
    acc.(0) <- acc.(0) -. pair_gain t no_xy no_cell 0 s.ids.(i)
  done;
  acc.(0)

let[@vm1.hot] plan_delta t =
  let s = t.scratch in
  let nets_end = gather t t.cell_net_start t.cell_nets 0 0 0 in
  let pairs_end =
    gather t t.cell_pair_start t.cell_pairs nets_end 0 nets_end
  in
  let before = eval_staged t ~nets_end ~pairs_end in
  for i = s.plan_len - 1 downto 0 do
    let cell = s.plan.(2 * i) in
    s.saved.(i) <- t.cells.(cell).cur;
    apply t ~cell ~cand:s.plan.((2 * i) + 1)
  done;
  let after = eval_staged t ~nets_end ~pairs_end in
  for i = s.plan_len - 1 downto 0 do
    apply t ~cell:s.plan.(2 * i) ~cand:s.saved.(i)
  done;
  after -. before

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
    pins = Array.copy t.pins;
    occ = Bytes.copy t.occ;
    owner = Array.copy t.owner;
    scratch =
      {
        t.scratch with
        acc = Array.copy t.scratch.acc;
        plan = Array.copy t.scratch.plan;
        kept = Array.copy t.scratch.kept;
        saved = Array.copy t.scratch.saved;
        ids = Array.copy t.scratch.ids;
      };
  }
