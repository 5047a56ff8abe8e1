type config = {
  relax_passes : int;
  blend : float;
  float_iters : int;      (* free-floating quadratic iterations *)
  reassign_rounds : int;  (* relax -> slot-assign -> legalise rounds *)
}

let default_config =
  { relax_passes = 3; blend = 0.25; float_iters = 100; reassign_rounds = 3 }

(* Seed cells across rows in id order (serpentine): id-locality of the
   netlist becomes an initial spatial locality. Positions in float space,
   cell centres. *)
let seed (p : Placement.t) cx cy =
  let n = Placement.num_instances p in
  let widths =
    Array.map
      (fun (inst : Netlist.Design.instance) ->
        inst.master.Pdk.Stdcell.width_sites)
      p.design.Netlist.Design.instances
  in
  let total_sites = Array.fold_left ( + ) 0 widths in
  let stretch =
    float_of_int (p.num_rows * p.sites_per_row) /. float_of_int total_sites
  in
  let sw = float_of_int p.tech.Pdk.Tech.site_width in
  let rh = float_of_int p.tech.Pdk.Tech.row_height in
  let cursor = ref 0.0 in
  for i = 0 to n - 1 do
    let pos = int_of_float !cursor in
    let row = min (p.num_rows - 1) (pos / p.sites_per_row) in
    let along = pos mod p.sites_per_row in
    let site =
      if row land 1 = 0 then along else p.sites_per_row - 1 - along
    in
    cx.(i) <- (float_of_int site +. 0.5) *. sw;
    cy.(i) <- (float_of_int row +. 0.5) *. rh;
    cursor := !cursor +. (float_of_int widths.(i) *. stretch)
  done

(* The nets a cell is pulled toward are fixed for a design: its non-clock
   nets with at least two pins (the usable nets), in
   [Netlist.Design.nets_of_instance] order, so the float sums below add
   in a fixed order. Both directions are stored flat: instance [i]'s
   usable nets are [nets.(start.(i)) .. nets.(start.(i+1) - 1)], and
   usable net [nid]'s pin instances, in pin order, are
   [pins.(pstart.(nid)) .. pins.(pstart.(nid+1) - 1)] (empty for every
   other net). The net-centroid buffers are reused by every step of one
   [place]. *)
type incidence = {
  start : int array;
  nets : int array;
  pstart : int array;
  pins : int array;
  ncx : float array;
  ncy : float array;
}

let incidence (design : Netlist.Design.t) =
  let n = Netlist.Design.num_instances design in
  let nn = Netlist.Design.num_nets design in
  let usable nid =
    (not design.nets.(nid).is_clock)
    && Array.length design.nets.(nid).pins > 1
  in
  let per_inst =
    Array.init n (fun i ->
        List.filter usable (Netlist.Design.nets_of_instance design i))
  in
  let start = Array.make (n + 1) 0 in
  Array.iteri
    (fun i l -> start.(i + 1) <- start.(i) + List.length l)
    per_inst;
  let nets = Array.make start.(n) 0 in
  Array.iteri
    (fun i l -> List.iteri (fun k nid -> nets.(start.(i) + k) <- nid) l)
    per_inst;
  let pstart = Array.make (nn + 1) 0 in
  for nid = 0 to nn - 1 do
    let d = if usable nid then Array.length design.nets.(nid).pins else 0 in
    pstart.(nid + 1) <- pstart.(nid) + d
  done;
  let pins = Array.make pstart.(nn) 0 in
  for nid = 0 to nn - 1 do
    if usable nid then
      Array.iteri
        (fun k (pr : Netlist.Design.pin_ref) ->
          pins.(pstart.(nid) + k) <- pr.inst)
        design.nets.(nid).pins
  done;
  {
    start;
    nets;
    pstart;
    pins;
    ncx = Array.make nn 0.0;
    ncy = Array.make nn 0.0;
  }

(* One centroid-relaxation step over float positions: pull every cell
   toward the mean of its nets' centroids. *)
let centroid_step inc cx cy blend =
  let { start; nets; pstart; pins; ncx; ncy } = inc in
  for nid = 0 to Array.length ncx - 1 do
    let s = pstart.(nid) and e = pstart.(nid + 1) in
    if e > s then begin
      let sx = ref 0.0 and sy = ref 0.0 in
      for q = s to e - 1 do
        sx := !sx +. cx.(pins.(q));
        sy := !sy +. cy.(pins.(q))
      done;
      ncx.(nid) <- !sx /. float_of_int (e - s);
      ncy.(nid) <- !sy /. float_of_int (e - s)
    end
  done;
  for i = 0 to Array.length cx - 1 do
    let s = start.(i) and e = start.(i + 1) in
    if e > s then begin
      let sx = ref 0.0 and sy = ref 0.0 in
      for q = s to e - 1 do
        sx := !sx +. ncx.(nets.(q));
        sy := !sy +. ncy.(nets.(q))
      done;
      let k = float_of_int (e - s) in
      let tx = !sx /. k and ty = !sy /. k in
      cx.(i) <- cx.(i) +. (blend *. (tx -. cx.(i)));
      cy.(i) <- cy.(i) +. (blend *. (ty -. cy.(i)))
    end
  done

(* Insertion sort of [k]/[a] by [Float.compare]; false (leaving them
   partly sorted) once it has shifted more than [budget] elements. *)
let insertion_sort k (a : int array) budget =
  let shifts = ref 0 and p = ref 1 and l = Array.length a in
  while !p < l && !shifts <= budget do
    let ek = k.(!p) and ea = a.(!p) in
    let j = ref !p in
    while !j > 0 && Float.compare ek k.(!j - 1) < 0 do
      k.(!j) <- k.(!j - 1);
      a.(!j) <- a.(!j - 1);
      decr j
    done;
    shifts := !shifts + (!p - !j);
    k.(!j) <- ek;
    a.(!j) <- ea;
    incr p
  done;
  !p >= l

(* Distinct finite keys have one sorted order, whatever the algorithm,
   and rescaled coordinates are close to uniform over their range: a
   stable counting sort into [l] equal-width buckets leaves little for an
   insertion sort to finish. Returns false (and leaves [order] as it
   was) when a key is not finite, two keys are equal, or the insertion
   sort runs over its budget. *)
let bucket_sort keys (order : int array) =
  let l = Array.length order in
  let lo = ref infinity and hi = ref neg_infinity and finite = ref true in
  Array.iter
    (fun i ->
      let x = keys.(i) in
      if Float.is_finite x then begin
        if x < !lo then lo := x;
        if x > !hi then hi := x
      end
      else finite := false)
    order;
  if (not !finite) || not (!hi > !lo) then false
  else begin
    let lo = !lo in
    let scale = float_of_int (l - 1) /. (!hi -. lo) in
    let bucket x =
      let b = int_of_float ((x -. lo) *. scale) in
      if b < 0 then 0 else if b >= l then l - 1 else b
    in
    let start = Array.make (l + 1) 0 in
    Array.iter
      (fun i ->
        let b = bucket keys.(i) in
        start.(b + 1) <- start.(b + 1) + 1)
      order;
    for b = 1 to l do
      start.(b) <- start.(b) + start.(b - 1)
    done;
    let k = Array.create_float l and a = Array.make l 0 in
    Array.iter
      (fun i ->
        let b = bucket keys.(i) in
        k.(start.(b)) <- keys.(i);
        a.(start.(b)) <- i;
        start.(b) <- start.(b) + 1)
      order;
    let distinct = ref (insertion_sort k a (4 * l)) in
    for p = 1 to l - 1 do
      if Float.compare k.(p - 1) k.(p) = 0 then distinct := false
    done;
    if !distinct then Array.blit a 0 order 0 l;
    !distinct
  end

(* [sort_by_key keys order] sorts the indices in [order] by [keys] into
   exactly the permutation [Array.sort (fun a b -> Float.compare keys.(a)
   keys.(b)) order] gives: distinct finite keys take the bucket sort,
   anything else [Array.sort] itself. *)
let sort_by_key keys (order : int array) =
  if not (bucket_sort keys order) then
    Array.sort (fun a b -> Float.compare keys.(a) keys.(b)) order

(* Spreading: centroid iteration contracts the cloud toward dense blobs;
   rank-based spreading (grid warping) pushes each axis back toward a
   uniform distribution over the die while preserving relative order, so
   clusters keep their identity but density stays usable. [mix] is the
   fraction moved toward the uniform rank position. Ties in rank order
   are broken by [Array.sort]'s permutation, which is therefore part of
   the placement. *)
let rescale ?(mix = 0.5) (p : Placement.t) cx cy =
  let n = Array.length cx in
  if n > 1 then begin
    let spread_axis arr extent =
      let order = Array.init n (fun i -> i) in
      sort_by_key arr order;
      let extent = float_of_int extent in
      Array.iteri
        (fun rank i ->
          let uniform =
            (float_of_int rank +. 0.5) /. float_of_int n *. extent
          in
          arr.(i) <- arr.(i) +. (mix *. (uniform -. arr.(i))))
        order
    in
    spread_axis cx (Geom.Rect.width p.die);
    spread_axis cy (Geom.Rect.height p.die)
  end

(* Slot assignment: convert float positions into a legal placement that
   preserves the cloud's relative order. Cells are sorted by y and dealt
   into rows up to each row's site capacity; within a row they are sorted
   by x and spread evenly. *)
let slot_assign (p : Placement.t) cx cy =
  let n = Placement.num_instances p in
  let widths =
    Array.map
      (fun (inst : Netlist.Design.instance) ->
        inst.master.Pdk.Stdcell.width_sites)
      p.design.Netlist.Design.instances
  in
  let total_sites = Array.fold_left ( + ) 0 widths in
  let per_row_target =
    float_of_int total_sites /. float_of_int p.num_rows
  in
  let by_y = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      match Float.compare cy.(a) cy.(b) with
      | 0 -> Float.compare cx.(a) cx.(b)
      | c -> c)
    by_y;
  let rows = Array.make p.num_rows [] in
  let row = ref 0 in
  let filled = ref 0.0 in
  Array.iter
    (fun i ->
      if
        !filled >= per_row_target *. float_of_int (!row + 1)
        && !row < p.num_rows - 1
      then incr row;
      rows.(!row) <- i :: rows.(!row);
      filled := !filled +. float_of_int widths.(i))
    by_y;
  let sw = float_of_int p.tech.Pdk.Tech.site_width in
  for r = 0 to p.num_rows - 1 do
    let cells = Array.of_list (List.rev rows.(r)) in
    Array.sort (fun a b -> Float.compare cx.(a) cx.(b)) cells;
    let row_sites = Array.fold_left (fun acc i -> acc + widths.(i)) 0 cells in
    let slack = max 0 (p.sites_per_row - row_sites) in
    let cursor = ref 0 in
    Array.iter
      (fun i ->
        (* distribute free sites in proportion to the cell's float x *)
        let want = int_of_float (cx.(i) /. sw) - (widths.(i) / 2) in
        let lo = !cursor in
        let hi = !cursor + slack in
        let site = max lo (min hi (max lo want)) in
        let site = min site (p.sites_per_row - widths.(i)) in
        Placement.move p i ~site ~row:r ~orient:p.orients.(i);
        cursor := site + widths.(i))
      cells
  done

let copy_coords (p : Placement.t) =
  (Array.copy p.xs, Array.copy p.ys, Array.copy p.orients)

let save_coords (p : Placement.t) (xs, ys, os) =
  Array.blit p.xs 0 xs 0 (Array.length xs);
  Array.blit p.ys 0 ys 0 (Array.length ys);
  Array.blit p.orients 0 os 0 (Array.length os)

let restore_coords (p : Placement.t) (xs, ys, os) =
  Array.blit xs 0 p.xs 0 (Array.length xs);
  Array.blit ys 0 p.ys 0 (Array.length ys);
  Array.blit os 0 p.orients 0 (Array.length os)

let place_impl config (p : Placement.t) =
  let n = Placement.num_instances p in
  let cx = Array.make n 0.0 and cy = Array.make n 0.0 in
  let inc = incidence p.design in
  seed p cx cy;
  (* phase A: free-floating quadratic relaxation with periodic rescale *)
  for it = 1 to config.float_iters do
    centroid_step inc cx cy 0.7;
    if it mod 3 = 0 || it = config.float_iters then rescale p cx cy
  done;
  (* phase B: order-preserving slot assignment *)
  slot_assign p cx cy;
  Legalize.legalize p;
  (* phase B': re-relax from the legal placement and re-assign, keeping
     the best round — each round lets clusters reform across the row
     structure the previous slot assignment imposed *)
  let best_b = copy_coords p in
  let best_b_hpwl = ref (Hpwl.total p) in
  for _ = 1 to config.reassign_rounds do
    for i = 0 to n - 1 do
      let c = Geom.Rect.center (Placement.instance_rect p i) in
      cx.(i) <- float_of_int c.Geom.Point.x;
      cy.(i) <- float_of_int c.Geom.Point.y
    done;
    for it = 1 to 12 do
      centroid_step inc cx cy 0.6;
      if it mod 3 = 0 then rescale ~mix:0.4 p cx cy
    done;
    slot_assign p cx cy;
    Legalize.legalize p;
    let h = Hpwl.total p in
    if h < !best_b_hpwl then begin
      best_b_hpwl := h;
      save_coords p best_b
    end
  done;
  restore_coords p best_b;
  (* phase C: legalised refinement with a small blend; refinement can hurt
     after legalisation scrambles the relaxed order, so keep the best
     placement seen *)
  let best = copy_coords p in
  let best_hpwl = ref (Hpwl.total p) in
  for _ = 1 to config.relax_passes do
    for i = 0 to n - 1 do
      let c = Geom.Rect.center (Placement.instance_rect p i) in
      cx.(i) <- float_of_int c.Geom.Point.x;
      cy.(i) <- float_of_int c.Geom.Point.y
    done;
    centroid_step inc cx cy config.blend;
    let rh = p.tech.Pdk.Tech.row_height in
    for i = 0 to n - 1 do
      let m = p.design.Netlist.Design.instances.(i).master in
      let x = int_of_float cx.(i) - (m.Pdk.Stdcell.width / 2) in
      let y = int_of_float cy.(i) - (m.Pdk.Stdcell.height / 2) in
      p.xs.(i) <- max 0 (min x (Geom.Rect.width p.die - m.Pdk.Stdcell.width));
      p.ys.(i) <- max 0 (min y ((p.num_rows - 1) * rh))
    done;
    Legalize.legalize p;
    let h = Hpwl.total p in
    if h < !best_hpwl then begin
      best_hpwl := h;
      save_coords p best
    end
  done;
  restore_coords p best

let place ?(config = default_config) (p : Placement.t) =
  Obs.with_span "place.global"
    ~attrs:[ ("instances", `Int (Placement.num_instances p)) ]
    (fun () ->
      place_impl config p;
      if Obs.enabled () then Obs.add_attr "hpwl_dbu" (`Int (Hpwl.total p)))
