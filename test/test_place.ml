(* Tests for placement: die sizing, legalisation, HPWL, global placement. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let lib = Pdk.Libgen.generate (Pdk.Tech.default Pdk.Cell_arch.Closed_m1)

let design ?(n = 300) ?(seed = 5) () =
  Netlist.Generator.generate lib
    (Netlist.Generator.default_config ~n_instances:n ~seed)
    ~name:"t"

let fresh ?(n = 300) ?(utilization = 0.75) () =
  Place.Placement.create (design ~n ()) ~utilization

(* --- Placement DB --- *)

let test_create_die_sizing () =
  let p = fresh () in
  let u = Place.Placement.utilization p in
  checkb "utilization near target" true (u > 0.65 && u <= 0.85);
  checkb "die roughly square" true
    (let w = float_of_int (Geom.Rect.width p.die) in
     let h = float_of_int (Geom.Rect.height p.die) in
     w /. h > 0.5 && w /. h < 2.0);
  check "rows consistent" (Geom.Rect.height p.die)
    (p.num_rows * p.tech.Pdk.Tech.row_height)

let test_create_rejects_bad_util () =
  let d = design () in
  Alcotest.check_raises "zero util"
    (Invalid_argument "Placement.create: utilization must be in (0,1]")
    (fun () -> ignore (Place.Placement.create d ~utilization:0.0))

let test_move_and_accessors () =
  let p = fresh () in
  Place.Placement.move p 3 ~site:10 ~row:2 ~orient:Geom.Orient.FN;
  check "x" (10 * 36) p.xs.(3);
  check "y" (2 * 270) p.ys.(3);
  check "site" 10 (Place.Placement.site_of_inst p 3);
  check "row" 2 (Place.Placement.row_of_inst p 3);
  checkb "orient" true (Geom.Orient.equal p.orients.(3) Geom.Orient.FN);
  let r = Place.Placement.instance_rect p 3 in
  check "rect lx" (10 * 36) r.Geom.Rect.lx;
  check "rect height" 270 (Geom.Rect.height r)

let test_copy_assign_independent () =
  let p = fresh () in
  Place.Global.place p;
  let q = Place.Placement.copy p in
  Place.Placement.move p 0 ~site:1 ~row:1 ~orient:Geom.Orient.N;
  checkb "copy unaffected" true (q.xs.(0) <> p.xs.(0) || q.ys.(0) <> p.ys.(0) ||
                                 (q.xs.(0) = p.xs.(0) && q.ys.(0) = p.ys.(0) &&
                                  Place.Placement.site_of_inst p 0 = 1));
  Place.Placement.assign p q;
  check "assign restores x" q.xs.(0) p.xs.(0);
  check "assign restores y" q.ys.(0) p.ys.(0)

let test_pin_pos_on_track () =
  let p = fresh () in
  Place.Global.place p;
  (* every ClosedM1 pin centre must sit on the M1 track grid *)
  Array.iteri
    (fun i (inst : Netlist.Design.instance) ->
      List.iteri
        (fun k _ ->
          let pos = Place.Placement.pin_pos p { Netlist.Design.inst = i; pin = k } in
          checkb "pin x on track" true
            (Pdk.Tech.is_on_m1_track p.tech pos.Geom.Point.x))
        inst.master.Pdk.Stdcell.pins)
    p.design.Netlist.Design.instances

let test_overlap_count_detects () =
  let p = fresh () in
  Place.Global.place p;
  check "legal has no overlap" 0 (Place.Placement.overlap_count p);
  (* force one overlap *)
  let s0 = Place.Placement.site_of_inst p 0 and r0 = Place.Placement.row_of_inst p 0 in
  Place.Placement.move p 1 ~site:s0 ~row:r0 ~orient:Geom.Orient.N;
  checkb "overlap detected" true (Place.Placement.overlap_count p > 0)

(* --- Legalize --- *)

let all_at p x y =
  Array.iteri (fun i _ -> p.Place.Placement.xs.(i) <- x; p.Place.Placement.ys.(i) <- y)
    p.Place.Placement.xs

let test_legalize_from_origin () =
  let p = fresh () in
  all_at p 0 0;
  Place.Legalize.legalize p;
  Alcotest.(check (list string)) "legal" [] (Place.Legalize.check p)

let test_legalize_from_center () =
  let p = fresh () in
  all_at p (Geom.Rect.width p.die / 2) (Geom.Rect.height p.die / 2);
  Place.Legalize.legalize p;
  Alcotest.(check (list string)) "legal" [] (Place.Legalize.check p)

let test_legalize_from_corner () =
  let p = fresh () in
  all_at p (Geom.Rect.width p.die) (Geom.Rect.height p.die);
  Place.Legalize.legalize p;
  Alcotest.(check (list string)) "legal" [] (Place.Legalize.check p)

let test_legalize_high_util () =
  let p = fresh ~utilization:0.92 () in
  all_at p 0 0;
  Place.Legalize.legalize p;
  Alcotest.(check (list string)) "legal at 92%" [] (Place.Legalize.check p)

let test_legalize_idempotent_when_legal () =
  let p = fresh () in
  Place.Global.place p;
  let before = Array.copy p.xs in
  Place.Legalize.legalize p;
  (* already-legal placements should not move much: displacement bounded by
     a few sites on average *)
  let total_disp = ref 0 in
  Array.iteri (fun i x -> total_disp := !total_disp + abs (x - before.(i))) p.xs;
  let avg = float_of_int !total_disp /. float_of_int (Array.length p.xs) in
  checkb "small average displacement" true (avg < 3.0 *. 36.0)

let test_check_reports_offgrid () =
  let p = fresh () in
  Place.Global.place p;
  p.xs.(0) <- p.xs.(0) + 1;
  checkb "offgrid reported" true
    (List.exists
       (fun s -> String.length s > 0)
       (Place.Legalize.check p));
  p.xs.(0) <- p.xs.(0) - 1

(* --- Hpwl --- *)

let test_hpwl_two_pin_net () =
  (* build a 2-instance design by hand and verify HPWL against geometry *)
  let inv = Pdk.Libgen.find lib "INV_X1" in
  let mk name =
    { Netlist.Design.inst_name = name; master = inv; pin_nets = [| 0; 0 |] }
  in
  let d =
    {
      Netlist.Design.name = "pair";
      lib;
      instances = [| mk "a"; mk "b" |];
      nets =
        [|
          {
            Netlist.Design.net_name = "n";
            pins =
              [|
                { Netlist.Design.inst = 0; pin = 1 };
                { Netlist.Design.inst = 1; pin = 0 };
              |];
            is_clock = false;
          };
        |];
    }
  in
  let p = Place.Placement.create d ~utilization:0.3 in
  Place.Placement.move p 0 ~site:0 ~row:0 ~orient:Geom.Orient.N;
  Place.Placement.move p 1 ~site:4 ~row:1 ~orient:Geom.Orient.N;
  let pos0 = Place.Placement.pin_pos p { Netlist.Design.inst = 0; pin = 1 } in
  let pos1 = Place.Placement.pin_pos p { Netlist.Design.inst = 1; pin = 0 } in
  check "hpwl matches pin geometry"
    (abs (pos0.Geom.Point.x - pos1.Geom.Point.x)
     + abs (pos0.Geom.Point.y - pos1.Geom.Point.y))
    (Place.Hpwl.net p 0);
  checkb "total positive" true (Place.Hpwl.total p > 0)

let test_hpwl_single_pin_zero () =
  let d = design () in
  let p = Place.Placement.create d ~utilization:0.75 in
  Place.Global.place p;
  (* dangling nets (degree < 2) contribute nothing *)
  Array.iteri
    (fun nid (net : Netlist.Design.net) ->
      if Array.length net.pins < 2 then check "dangling zero" 0 (Place.Hpwl.net p nid))
    d.nets

(* the tabulated pin boxes equal placing each pin's shapes afresh, under
   every orientation and after moves that change it *)
let test_pin_table_matches () =
  let p = fresh () in
  Place.Global.place p;
  Array.iteri
    (fun i _ -> p.orients.(i) <- [| Geom.Orient.N; FN; S; FS |].(i mod 4))
    p.orients;
  Place.Placement.move p 7 ~site:3 ~row:1 ~orient:Geom.Orient.FS;
  Place.Placement.move p 8 ~site:0 ~row:2 ~orient:Geom.Orient.FN;
  let q = Place.Placement.of_def p.design (Place.Placement.to_def p) in
  List.iter
    (fun (t : Place.Placement.t) ->
      Array.iteri
        (fun i (inst : Netlist.Design.instance) ->
          let m = inst.master in
          let orient = t.orients.(i)
          and origin = Geom.Point.make t.xs.(i) t.ys.(i) in
          List.iteri
            (fun k pin ->
              let pr = { Netlist.Design.inst = i; pin = k } in
              let bbox = Pdk.Stdcell.placed_pin_bbox m ~orient ~origin pin in
              checkb "pos" true
                (Geom.Point.equal (Place.Placement.pin_pos t pr) (Geom.Rect.center bbox));
              checkb "x interval" true
                (Place.Placement.pin_x_interval t pr = Geom.Rect.x_span bbox))
            m.Pdk.Stdcell.pins)
        t.design.Netlist.Design.instances)
    [ p; q ]

(* --- Global --- *)

let test_global_improves_hpwl () =
  let p = fresh ~n:600 () in
  (* seed-only baseline: run with 0 relax passes *)
  let q = Place.Placement.copy p in
  Place.Global.place ~config:{ Place.Global.default_config with relax_passes = 0; float_iters = 0; reassign_rounds = 0 } q;
  let seeded = Place.Hpwl.total q in
  Place.Global.place p;
  let relaxed = Place.Hpwl.total p in
  checkb "relaxation does not hurt much" true
    (float_of_int relaxed < 1.1 *. float_of_int seeded);
  Alcotest.(check (list string)) "legal" [] (Place.Legalize.check p)

let test_global_deterministic () =
  let p1 = fresh () and p2 = fresh () in
  Place.Global.place p1;
  Place.Global.place p2;
  Alcotest.(check (array int)) "same xs" p1.xs p2.xs;
  Alcotest.(check (array int)) "same ys" p1.ys p2.ys

(* --- row DP baseline --- *)

let test_row_opt_improves_and_legal () =
  let p = fresh ~n:500 () in
  Place.Global.place p;
  let before = Place.Hpwl.total p in
  let gain = Place.Row_opt.optimize ~passes:2 p in
  let after = Place.Hpwl.total p in
  checkb "reported gain nonnegative" true (gain >= 0);
  checkb "hpwl not worse" true (after <= before);
  Alcotest.(check (list string)) "legal" [] (Place.Legalize.check p)

let test_row_opt_preserves_order () =
  let p = fresh ~n:400 () in
  Place.Global.place p;
  let order_of_row row =
    let cells = ref [] in
    for i = Place.Placement.num_instances p - 1 downto 0 do
      if Place.Placement.row_of_inst p i = row then cells := i :: !cells
    done;
    List.sort (fun a b -> Int.compare p.xs.(a) p.xs.(b)) !cells
  in
  let before = List.init p.num_rows order_of_row in
  ignore (Place.Row_opt.optimize ~passes:1 p);
  let after = List.init p.num_rows order_of_row in
  checkb "left-right order preserved per row" true (before = after)

let test_row_opt_single_row_optimal_monotone () =
  (* intra-row nets couple the cells, so one DP pass is not a fixpoint;
     repeated passes must converge to zero gain quickly *)
  let p = fresh ~n:300 () in
  Place.Global.place p;
  let rec converge tries =
    if tries = 0 then Alcotest.fail "row DP did not converge"
    else if Place.Row_opt.optimize_row p ~row:2 <= 0 then ()
    else converge (tries - 1)
  in
  converge 10;
  checkb "no gain at fixpoint" true (Place.Row_opt.optimize_row p ~row:2 <= 0)

(* --- row DP oracle ---

   The reference below is the row DP as first written: list cost terms
   folded with [Stdlib.max], a cost table over every site of the row and
   a full cells x sites choice matrix. [Row_opt.optimize_row] runs over
   feasible spans with flat int tables; on the same row both must report
   the same gain and leave the same coordinates. *)

let ref_cost_table (p : Place.Placement.t) i =
  let design = p.design in
  let inst = design.Netlist.Design.instances.(i) in
  let sw = p.tech.Pdk.Tech.site_width in
  let nsites = p.sites_per_row in
  let w = inst.master.Pdk.Stdcell.width_sites in
  let terms = ref [] in
  List.iteri
    (fun k (_ : Pdk.Stdcell.pin) ->
      let nid = inst.pin_nets.(k) in
      if nid >= 0 && not design.nets.(nid).is_clock then begin
        let net = design.nets.(nid) in
        if Array.length net.pins >= 2 then begin
          let lo = ref max_int and hi = ref min_int in
          Array.iter
            (fun (pr : Netlist.Design.pin_ref) ->
              if not (pr.inst = i && pr.pin = k) then begin
                let pos = Place.Placement.pin_pos p pr in
                if pos.Geom.Point.x < !lo then lo := pos.Geom.Point.x;
                if pos.Geom.Point.x > !hi then hi := pos.Geom.Point.x
              end)
            net.pins;
          if !lo <= !hi then begin
            let cur =
              Place.Placement.pin_pos p { Netlist.Design.inst = i; pin = k }
            in
            terms := (cur.Geom.Point.x - p.xs.(i), !lo, !hi) :: !terms
          end
        end
      end)
    inst.master.Pdk.Stdcell.pins;
  let cost = Array.make nsites max_int in
  for s = 0 to nsites - w do
    let x0 = s * sw in
    cost.(s) <-
      List.fold_left
        (fun acc (offset, lo, hi) ->
          let px = x0 + offset in
          acc + Stdlib.max 0 (lo - px) + Stdlib.max 0 (px - hi))
        0 !terms
  done;
  cost

let ref_cells_hpwl (p : Place.Placement.t) cells =
  Array.to_list cells
  |> List.concat_map (Netlist.Design.nets_of_instance p.design)
  |> List.sort_uniq Int.compare
  |> List.fold_left (fun acc nid -> acc + Place.Hpwl.net p nid) 0

let ref_optimize_row (p : Place.Placement.t) ~row =
  let cells =
    let acc = ref [] in
    for i = Place.Placement.num_instances p - 1 downto 0 do
      if Place.Placement.row_of_inst p i = row then acc := i :: !acc
    done;
    List.sort (fun a b -> Int.compare p.xs.(a) p.xs.(b)) !acc
    |> Array.of_list
  in
  let k = Array.length cells in
  if k = 0 then 0
  else begin
    let nsites = p.sites_per_row in
    let widths =
      Array.map
        (fun i ->
          p.design.Netlist.Design.instances.(i).master.Pdk.Stdcell.width_sites)
        cells
    in
    let before = ref_cells_hpwl p cells in
    let costs = Array.map (ref_cost_table p) cells in
    let choice = Array.make_matrix k nsites (-1) in
    let prev_min = Array.make nsites max_int in
    let prev_arg = Array.make nsites (-1) in
    let commit cur =
      let best = ref max_int and arg = ref (-1) in
      for s = 0 to nsites - 1 do
        if cur.(s) < !best then begin
          best := cur.(s);
          arg := s
        end;
        prev_min.(s) <- !best;
        prev_arg.(s) <- !arg
      done
    in
    commit (Array.copy costs.(0));
    for j = 1 to k - 1 do
      let cur = Array.make nsites max_int in
      for s = 0 to nsites - widths.(j) do
        let limit = s - widths.(j - 1) in
        if limit >= 0 && prev_min.(limit) < max_int && costs.(j).(s) < max_int
        then begin
          cur.(s) <- prev_min.(limit) + costs.(j).(s);
          choice.(j).(s) <- prev_arg.(limit)
        end
      done;
      commit cur
    done;
    let best_s = prev_arg.(nsites - 1) in
    if best_s < 0 then 0
    else begin
      let sites = Array.make k 0 in
      sites.(k - 1) <- best_s;
      for j = k - 1 downto 1 do
        sites.(j - 1) <- choice.(j).(sites.(j))
      done;
      Array.iteri
        (fun j i ->
          Place.Placement.move p i ~site:sites.(j) ~row ~orient:p.orients.(i))
        cells;
      before - ref_cells_hpwl p cells
    end
  end

let row_cells (p : Place.Placement.t) row =
  List.filter
    (fun i -> Place.Placement.row_of_inst p i = row)
    (List.init (Place.Placement.num_instances p) Fun.id)

let row_width (p : Place.Placement.t) row =
  List.fold_left
    (fun acc i ->
      acc + p.design.Netlist.Design.instances.(i).master.Pdk.Stdcell.width_sites)
    0 (row_cells p row)

(* run both DPs on copies of [p]; true when the row held a cell on a
   clock net / on a one-pin net *)
let check_row_against_oracle tag (p : Place.Placement.t) row =
  let a = Place.Placement.copy p and b = Place.Placement.copy p in
  let want = ref_optimize_row a ~row in
  let got = Place.Row_opt.optimize_row b ~row in
  check (tag ^ " gain") want got;
  Alcotest.(check (array int)) (tag ^ " xs") a.xs b.xs;
  Alcotest.(check (array int)) (tag ^ " ys") a.ys b.ys;
  let nets = List.concat_map (Netlist.Design.nets_of_instance p.design) (row_cells p row) in
  ( List.exists (fun nid -> p.design.Netlist.Design.nets.(nid).is_clock) nets,
    List.exists (fun nid -> Netlist.Design.net_degree p.design nid < 2) nets )

let test_row_dp_oracle () =
  let st = Random.State.make [| 19 |] in
  let saw_clock = ref false and saw_dangling = ref false in
  let note (c, d) =
    if c then saw_clock := true;
    if d then saw_dangling := true
  in
  List.iter
    (fun seed ->
      let p = Place.Placement.create (design ~n:200 ~seed ()) ~utilization:0.75 in
      Place.Global.place p;
      let rh = p.tech.Pdk.Tech.row_height and sw = p.tech.Pdk.Tech.site_width in
      for row = 0 to p.num_rows - 1 do
        (* the placed row, then with its cells scattered over random sites
           (overlaps allowed: the DP only reads their left-to-right order) *)
        note (check_row_against_oracle (Printf.sprintf "s%d r%d" seed row) p row);
        let q = Place.Placement.copy p in
        List.iter
          (fun i -> q.xs.(i) <- Random.State.int st p.sites_per_row * sw)
          (row_cells q row);
        note (check_row_against_oracle (Printf.sprintf "s%d r%d shuffled" seed row) q row)
      done;
      let row = Random.State.int st p.num_rows in
      let w = row_width p row in
      (* zero slack, and one site short of it: the row becomes over-full *)
      note (check_row_against_oracle "zero slack" { p with sites_per_row = w } row);
      let full = { p with sites_per_row = w - 1 } in
      let before = Array.copy full.xs in
      check "over-full gain" 0 (Place.Row_opt.optimize_row full ~row);
      Alcotest.(check (array int)) "over-full moves nothing" before full.xs;
      note (check_row_against_oracle "over-full" full row);
      (* a single-cell row: every other cell of the row moves one row up
         or down *)
      let q = Place.Placement.copy p in
      let other = if row = 0 then 1 else row - 1 in
      List.iteri
        (fun k i -> if k > 0 then q.ys.(i) <- other * rh)
        (row_cells q row);
      check "one cell left" 1 (List.length (row_cells q row));
      note (check_row_against_oracle "single cell" q row))
    [ 1; 2; 3 ];
  checkb "a checked row had a clock-net cell" true !saw_clock;
  checkb "a checked row had a one-pin-net cell" true !saw_dangling

(* the specialised rescale sort against [Array.sort]: keys from a small
   set (dense ties, signed zeros, nan, infinities) take the heap sort;
   spread keys, with the odd special value, take the bucket sort *)
let sort_agrees l =
  let keys = Array.of_list l in
  let want = Array.init (Array.length keys) Fun.id in
  Array.sort (fun a b -> Float.compare keys.(a) keys.(b)) want;
  let got = Array.init (Array.length keys) Fun.id in
  Place.Global.sort_by_key keys got;
  want = got

let special = [ -0.; 0.; 1.; -1.; 2.5; nan; infinity; neg_infinity ]

let test_sort_by_key_ties =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"sort_by_key = Array.sort, ties"
       QCheck.(list_of_size Gen.(0 -- 60) (oneofl special))
       sort_agrees)

let test_sort_by_key_spread =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"sort_by_key = Array.sort, spread"
       QCheck.(
         list_of_size Gen.(0 -- 300)
           (frequency [ (40, float_range (-1e4) 1e4); (1, oneofl special) ]))
       sort_agrees)

(* --- pinned placement digests ---

   The placer kernels are optimised for speed but must keep every
   placement bit for bit; these constants were taken before any kernel
   optimisation and pin [Global.place] alone and [Global.place] followed
   by [Row_opt.optimize ~passes:2] on three named designs. *)

let placement_digest (p : Place.Placement.t) =
  let b = Buffer.create (16 * Array.length p.xs) in
  Array.iteri
    (fun i x ->
      Printf.bprintf b "%d %d %s\n" x p.ys.(i)
        (Geom.Orient.to_string p.orients.(i)))
    p.xs;
  Digest.to_hex (Digest.string (Buffer.contents b))

let pinned_digests =
  [
    ( Netlist.Designs.M0, 32, "f970385ba6fc4709c9e881954d5246b6",
      "40015ea58d2cc72bc79e3094f78ea658" );
    ( Netlist.Designs.Aes, 16, "c84e30d2cfd79af18075cc0e27cd5149",
      "15360ca80f5e8a892922cc1f10f6bcd1" );
    ( Netlist.Designs.Jpeg, 32, "846d015fe7dc0a3f66f7d902af38a240",
      "23f375168b5c1ba50d4e636a0e69f8fa" );
  ]

let test_pinned_digests () =
  List.iter
    (fun (name, scale, global_d, row_opt_d) ->
      let tag = Printf.sprintf "%s/%d" (Netlist.Designs.to_string name) scale in
      let d = Netlist.Designs.make ~scale name Pdk.Cell_arch.Closed_m1 in
      let p = Place.Placement.create d ~utilization:0.75 in
      Place.Global.place p;
      Alcotest.(check string) (tag ^ " global") global_d (placement_digest p);
      ignore (Place.Row_opt.optimize ~passes:2 p);
      Alcotest.(check string) (tag ^ " global+row_opt") row_opt_d
        (placement_digest p))
    pinned_digests

(* --- def conversion --- *)

let test_to_from_def () =
  let p = fresh () in
  Place.Global.place p;
  let def = Place.Placement.to_def p in
  let q = Place.Placement.of_def p.design def in
  Alcotest.(check (array int)) "xs" p.xs q.xs;
  Alcotest.(check (array int)) "ys" p.ys q.ys;
  check "rows" p.num_rows q.num_rows;
  check "sites" p.sites_per_row q.sites_per_row

let () =
  Alcotest.run "place"
    [
      ( "placement",
        [
          Alcotest.test_case "die sizing" `Quick test_create_die_sizing;
          Alcotest.test_case "bad util" `Quick test_create_rejects_bad_util;
          Alcotest.test_case "move/accessors" `Quick test_move_and_accessors;
          Alcotest.test_case "copy/assign" `Quick test_copy_assign_independent;
          Alcotest.test_case "pins on tracks" `Quick test_pin_pos_on_track;
          Alcotest.test_case "pin table = placed boxes" `Quick test_pin_table_matches;
          Alcotest.test_case "overlap detection" `Quick test_overlap_count_detects;
        ] );
      ( "legalize",
        [
          Alcotest.test_case "from origin" `Quick test_legalize_from_origin;
          Alcotest.test_case "from center" `Quick test_legalize_from_center;
          Alcotest.test_case "from corner" `Quick test_legalize_from_corner;
          Alcotest.test_case "high utilization" `Quick test_legalize_high_util;
          Alcotest.test_case "near-idempotent" `Quick test_legalize_idempotent_when_legal;
          Alcotest.test_case "reports off-grid" `Quick test_check_reports_offgrid;
        ] );
      ( "hpwl",
        [
          Alcotest.test_case "two-pin net" `Quick test_hpwl_two_pin_net;
          Alcotest.test_case "dangling zero" `Quick test_hpwl_single_pin_zero;
        ] );
      ( "global",
        [
          Alcotest.test_case "improves hpwl" `Quick test_global_improves_hpwl;
          Alcotest.test_case "deterministic" `Quick test_global_deterministic;
        ] );
      ( "row_opt",
        [
          Alcotest.test_case "improves and legal" `Quick test_row_opt_improves_and_legal;
          Alcotest.test_case "preserves order" `Quick test_row_opt_preserves_order;
          Alcotest.test_case "converged after one pass" `Quick
            test_row_opt_single_row_optimal_monotone;
        ] );
      ( "row_dp_oracle",
        [
          Alcotest.test_case "matches full-row DP" `Quick test_row_dp_oracle;
          test_sort_by_key_ties;
          test_sort_by_key_spread;
        ] );
      ( "digests",
        [ Alcotest.test_case "pinned placements" `Quick test_pinned_digests ] );
      ( "def",
        [ Alcotest.test_case "to/from def" `Quick test_to_from_def ] );
    ]
