(* Tests for the core contribution: alignment predicates, objective,
   window partitioning, SCP candidates, solvers (greedy vs exact vs MILP),
   DistOpt and the VM1Opt metaheuristic. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-6))

let closed_tech = Pdk.Tech.default Pdk.Cell_arch.Closed_m1
let open_tech = Pdk.Tech.default Pdk.Cell_arch.Open_m1
let closed_lib = Pdk.Libgen.generate closed_tech
let open_lib = Pdk.Libgen.generate open_tech
let closed_params = Vm1.Params.default closed_tech
let open_params = Vm1.Params.default open_tech

let placed ?(n = 250) ?(seed = 9) ?(utilization = 0.72) lib =
  let d =
    Netlist.Generator.generate lib
      (Netlist.Generator.default_config ~n_instances:n ~seed)
      ~name:"t"
  in
  let p = Place.Placement.create d ~utilization in
  Place.Global.place p;
  p

let whole_die_frame ?(lx = 3) ?(ly = 1) ?(allow_flip = false) p params =
  let movable = List.init (Place.Placement.num_instances p) (fun i -> i) in
  Vm1.Wproblem.frame p params ~site_lo:0 ~row_lo:0
    ~bw:p.Place.Placement.sites_per_row ~bh:p.Place.Placement.num_rows ~movable
    ~lx ~ly ~allow_flip ~allow_move:true

let whole_die_problem ?lx ?ly ?allow_flip p params =
  Vm1.Wproblem.tables (whole_die_frame ?lx ?ly ?allow_flip p params)

(* --- Params --- *)

let test_params_defaults () =
  checkf "alpha closed" 1200.0 closed_params.Vm1.Params.alpha;
  checkf "alpha open" 1000.0 open_params.Vm1.Params.alpha;
  checkf "beta" 1.0 closed_params.Vm1.Params.beta;
  check "gamma" 3 closed_params.Vm1.Params.gamma;
  check "closed gamma" 1 closed_params.Vm1.Params.closed_gamma

let test_params_sequences () =
  check "seq1 length" 1 (List.length (Vm1.Params.sequence 1));
  check "seq2 length" 3 (List.length (Vm1.Params.sequence 2));
  check "seq5 length" 4 (List.length (Vm1.Params.sequence 5));
  Alcotest.check_raises "seq 6 raises"
    (Invalid_argument "Params.sequence: no sequence 6") (fun () ->
      ignore (Vm1.Params.sequence 6))

(* --- Align --- *)

let geom ax y = { Vm1.Align.ax; x_lo = ax - 9; x_hi = ax + 9; y }

let test_aligned_closed () =
  let h = closed_tech.Pdk.Tech.row_height in
  checkb "same track adjacent row" true
    (Vm1.Align.aligned closed_params closed_tech (geom 54 135) (geom 54 (135 + h)));
  checkb "same track two rows apart" false
    (Vm1.Align.aligned closed_params closed_tech (geom 54 135) (geom 54 (135 + 2 * h)));
  checkb "different track" false
    (Vm1.Align.aligned closed_params closed_tech (geom 54 135) (geom 90 (135 + h)));
  checkb "same point not aligned" false
    (Vm1.Align.aligned closed_params closed_tech (geom 54 135) (geom 54 135))

let test_overlap_open () =
  let h = open_tech.Pdk.Tech.row_height in
  let wide ax y = { Vm1.Align.ax; x_lo = ax - 50; x_hi = ax + 50; y } in
  let d, o =
    Vm1.Align.overlap open_params open_tech (wide 100 60) (wide 120 (60 + h))
  in
  checkb "overlapping pins" true d;
  check "overlap length beyond delta" (80 - open_params.Vm1.Params.delta) o;
  (* too far vertically: gamma rows is the limit *)
  let d2, _ =
    Vm1.Align.overlap open_params open_tech (wide 100 60)
      (wide 100 (60 + ((open_params.Vm1.Params.gamma + 1) * h)))
  in
  checkb "beyond gamma" false d2;
  (* tiny overlap below delta *)
  let d3, o3 =
    Vm1.Align.overlap open_params open_tech (wide 100 60) (wide 195 (60 + h))
  in
  checkb "below delta" false d3;
  check "zero overlap credit" 0 o3

let test_pair_gain () =
  let h = closed_tech.Pdk.Tech.row_height in
  checkf "closed gain is alpha" closed_params.Vm1.Params.alpha
    (Vm1.Align.pair_gain closed_params closed_tech (geom 54 135) (geom 54 (135 + h)));
  checkf "no gain" 0.0
    (Vm1.Align.pair_gain closed_params closed_tech (geom 54 135) (geom 90 (135 + h)))

let test_align_of_candidate_matches_placed () =
  let p = placed closed_lib in
  let tech = p.Place.Placement.tech in
  (* for every pin: of_candidate at the current site/row/orient equals
     of_placed, and at every orientation one site and row further it
     equals the box of the master's re-placed shapes *)
  for i = 0 to 40 do
    let inst = p.Place.Placement.design.Netlist.Design.instances.(i) in
    let site = Place.Placement.site_of_inst p i
    and row = Place.Placement.row_of_inst p i in
    List.iteri
      (fun k pin ->
        let pr = { Netlist.Design.inst = i; pin = k } in
        let a = Vm1.Align.of_placed p pr in
        let b =
          Vm1.Align.of_candidate p pr ~site ~row
            ~orient:p.Place.Placement.orients.(i)
        in
        checkb "geom equal" true (a = b);
        List.iter
          (fun orient ->
            let r =
              Pdk.Stdcell.placed_pin_bbox inst.master ~orient
                ~origin:
                  (Geom.Point.make
                     ((site + 1) * tech.Pdk.Tech.site_width)
                     ((row + 1) * tech.Pdk.Tech.row_height))
                pin
            in
            let c =
              Vm1.Align.of_candidate p pr ~site:(site + 1) ~row:(row + 1)
                ~orient
            in
            checkb "candidate = re-placed shapes" true
              (c
              = {
                  Vm1.Align.ax = (r.lx + r.hx) / 2;
                  x_lo = r.lx;
                  x_hi = r.hx;
                  y = (r.ly + r.hy) / 2;
                }))
          Geom.Orient.[ N; FN; S; FS ])
      inst.master.Pdk.Stdcell.pins
  done

(* --- Objective --- *)

let test_objective_hpwl_matches_place () =
  let p = placed closed_lib in
  let c = Vm1.Objective.counts closed_params p in
  check "hpwl agrees with Place.Hpwl" (Place.Hpwl.total p) c.Vm1.Objective.hpwl_dbu

let test_objective_value_formula () =
  let p = placed closed_lib in
  let c = Vm1.Objective.counts closed_params p in
  let expected =
    (closed_params.Vm1.Params.beta *. float_of_int c.Vm1.Objective.hpwl_dbu)
    -. (closed_params.Vm1.Params.alpha *. float_of_int c.Vm1.Objective.alignments)
    -. (closed_params.Vm1.Params.epsilon *. float_of_int c.Vm1.Objective.overlap_sum)
  in
  checkf "value formula" expected (Vm1.Objective.value closed_params p)

let test_net_pairs () =
  let p = placed closed_lib in
  let d = p.Place.Placement.design in
  List.iter
    (fun n ->
      let deg = Netlist.Design.net_degree d n in
      let pairs = Vm1.Objective.net_pairs d n in
      checkb "pair count bounded" true
        (List.length pairs <= deg * (deg - 1) / 2);
      List.iter
        (fun ((a : Netlist.Design.pin_ref), (b : Netlist.Design.pin_ref)) ->
          checkb "distinct instances" true (a.inst <> b.inst))
        pairs)
    (Netlist.Design.signal_nets d)

(* --- Window --- *)

let test_partition_covers_all_interior_cells () =
  let p = placed closed_lib in
  let ws = Vm1.Window.partition p ~tx:0 ~ty:0 ~bw:40 ~bh:6 in
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun (w : Vm1.Window.t) ->
      List.iter
        (fun i ->
          checkb "each cell in one window" false (Hashtbl.mem seen i);
          Hashtbl.replace seen i ())
        w.movable)
    ws;
  (* every movable cell is fully inside its window *)
  Array.iter
    (fun (w : Vm1.Window.t) ->
      List.iter
        (fun i ->
          let s = Place.Placement.site_of_inst p i in
          let width =
            p.Place.Placement.design.Netlist.Design.instances.(i)
              .master.Pdk.Stdcell.width_sites
          in
          let r = Place.Placement.row_of_inst p i in
          checkb "inside x" true
            (s >= w.site_lo && s + width - 1 <= w.site_lo + w.bw - 1);
          checkb "inside y" true (r >= w.row_lo && r <= w.row_lo + w.bh - 1))
        w.movable)
    ws

let test_diagonal_batches_disjoint () =
  let p = placed closed_lib in
  let ws = Vm1.Window.partition p ~tx:7 ~ty:1 ~bw:30 ~bh:4 in
  let batches = Vm1.Window.diagonal_batches ws in
  List.iter
    (fun batch ->
      Array.iteri
        (fun i (a : Vm1.Window.t) ->
          Array.iteri
            (fun j (b : Vm1.Window.t) ->
              if i < j then begin
                checkb "disjoint ix" true (a.ix <> b.ix);
                checkb "disjoint iy" true (a.iy <> b.iy)
              end)
            batch)
        batch)
    batches;
  (* batches partition the windows *)
  let total = List.fold_left (fun acc b -> acc + Array.length b) 0 batches in
  check "batches cover windows" (Array.length ws) total

(* --- Wproblem --- *)

let test_candidates_respect_ranges () =
  let p = placed closed_lib in
  let t = whole_die_problem ~lx:3 ~ly:1 p closed_params in
  Array.iter
    (fun (c : Vm1.Wproblem.cell) ->
      let cand0 = c.cands.(0) in
      Array.iter
        (fun (cand : Vm1.Wproblem.candidate) ->
          checkb "x range" true (abs (cand.site - cand0.site) <= 3);
          checkb "y range" true (abs (cand.row - cand0.row) <= 1);
          checkb "no flip candidates" true
            (Geom.Orient.equal cand.orient cand0.orient))
        c.cands)
    t.cells

let test_flip_only_candidates () =
  let p = placed closed_lib in
  let movable = List.init (Place.Placement.num_instances p) (fun i -> i) in
  let t =
    Vm1.Wproblem.extract p closed_params ~site_lo:0 ~row_lo:0
      ~bw:p.Place.Placement.sites_per_row ~bh:p.Place.Placement.num_rows
      ~movable ~lx:0 ~ly:0 ~allow_flip:true ~allow_move:false
  in
  Array.iter
    (fun (c : Vm1.Wproblem.cell) ->
      checkb "at most two candidates" true (Array.length c.cands <= 2);
      Array.iter
        (fun (cand : Vm1.Wproblem.candidate) ->
          check "same site" c.cands.(0).site cand.site;
          check "same row" c.cands.(0).row cand.row)
        c.cands)
    t.cells

let test_objective_consistent_with_move_delta () =
  let p = placed closed_lib in
  let t = whole_die_problem p closed_params in
  let before = Vm1.Wproblem.objective t in
  (* apply a random feasible move and compare delta with full recompute *)
  let moved = ref false in
  (try
     Array.iteri
       (fun cell (c : Vm1.Wproblem.cell) ->
         for cand = 0 to Array.length c.cands - 1 do
           if
             (not !moved) && cand <> c.cur
             && Vm1.Wproblem.candidate_free t ~cell ~cand
           then begin
             let d = Vm1.Wproblem.move_delta t ~cell ~cand in
             Vm1.Wproblem.apply t ~cell ~cand;
             let after = Vm1.Wproblem.objective t in
             Alcotest.(check (float 0.001)) "delta = recompute" (after -. before) d;
             moved := true;
             raise Exit
           end
         done)
       t.cells
   with Exit -> ());
  checkb "a move happened" true !moved

let test_commit_writes_back_legal () =
  let p = placed closed_lib in
  let t = whole_die_problem p closed_params in
  ignore (Vm1.Scp_solver.solve ~mode:`Greedy t);
  Vm1.Wproblem.commit t;
  Alcotest.(check (list string)) "legal after commit" [] (Place.Legalize.check p)

let test_shove_plans_stay_legal () =
  let p = placed ~utilization:0.8 closed_lib in
  let t = whole_die_problem p closed_params in
  ignore (Vm1.Scp_solver.solve ~mode:`Greedy t);
  Vm1.Wproblem.commit t;
  Alcotest.(check (list string)) "legal with shoves at 80%" []
    (Place.Legalize.check p)

(* --- Scp_solver --- *)

let test_greedy_never_worsens () =
  let p = placed closed_lib in
  let t = whole_die_problem p closed_params in
  let stats = Vm1.Scp_solver.solve ~mode:`Greedy t in
  checkb "objective not worse" true
    (stats.Vm1.Scp_solver.objective_after
     <= stats.Vm1.Scp_solver.objective_before +. 1e-6)

let tiny_window p params =
  (* a small real window cut from a placement, with few cells *)
  let ws = Vm1.Window.partition p ~tx:0 ~ty:0 ~bw:14 ~bh:2 in
  let w =
    Array.to_list ws
    |> List.filter (fun (w : Vm1.Window.t) ->
           let k = List.length w.movable in
           k >= 2 && k <= 4)
    |> List.hd
  in
  Vm1.Wproblem.extract p params ~site_lo:w.site_lo ~row_lo:w.row_lo ~bw:w.bw
    ~bh:w.bh ~movable:w.movable ~lx:2 ~ly:1 ~allow_flip:false ~allow_move:true

let test_exact_beats_or_ties_greedy () =
  let p = placed closed_lib in
  let t1 = tiny_window p closed_params in
  let g = Vm1.Scp_solver.solve ~mode:`Greedy t1 in
  let p2 = placed closed_lib in
  let t2 = tiny_window p2 closed_params in
  let e = Vm1.Scp_solver.exact t2 in
  checkb "exact <= greedy" true
    (e.Vm1.Scp_solver.objective_after
     <= g.Vm1.Scp_solver.objective_after +. 1e-6)

(* [moves] counts cells that left their input candidate: solving again
   from exact's own optimum, where some cells sit off candidate 0, moves
   nothing *)
let test_exact_moves_from_input () =
  let p = placed closed_lib in
  let t = tiny_window p closed_params in
  let first = Vm1.Scp_solver.exact t in
  checkb "first solve moves a cell" true (first.Vm1.Scp_solver.moves > 0);
  let again = Vm1.Scp_solver.exact t in
  check "no moves at the optimum" 0 again.Vm1.Scp_solver.moves

let test_anneal_not_worse_than_greedy () =
  let p1 = placed closed_lib in
  let t1 = whole_die_problem p1 closed_params in
  let sg = Vm1.Scp_solver.solve ~mode:`Greedy t1 in
  let p2 = placed closed_lib in
  let t2 = whole_die_problem p2 closed_params in
  let sa = Vm1.Scp_solver.solve ~mode:`Anneal t2 in
  checkb "anneal <= greedy" true
    (sa.Vm1.Scp_solver.objective_after
     <= sg.Vm1.Scp_solver.objective_after +. 1e-6);
  (* committing the annealed result must stay legal *)
  Vm1.Wproblem.commit t2;
  Alcotest.(check (list string)) "legal" [] (Place.Legalize.check p2)

let test_anneal_deterministic () =
  let run () =
    let p = placed closed_lib in
    let t = whole_die_problem p closed_params in
    let s = Vm1.Scp_solver.solve ~mode:`Anneal t in
    s.Vm1.Scp_solver.objective_after
  in
  Alcotest.(check (float 1e-9)) "same objective" (run ()) (run ())

let test_exact_refuses_large () =
  let p = placed closed_lib in
  let t = whole_die_problem p closed_params in
  checkb "search space saturates" true
    (Vm1.Scp_solver.exact_search_space t > Vm1.Scp_solver.exact_limit);
  Alcotest.check_raises "refuses"
    (Invalid_argument "Scp_solver: window too large for exact search")
    (fun () -> ignore (Vm1.Scp_solver.exact t))

(* --- Formulate: the MILP agrees with exhaustive search --- *)

(* (seed, utilization) inputs. Seed 100 (ClosedM1) and seed 178 (OpenM1)
   at 0.7 are windows of the random-window property on which branch and
   bound once returned a wrong "optimum" (8004 vs 7668, 4821 vs 4749),
   trusting simplex answers broken by the big-G rows. *)
let milp_matches_exact lib params cases =
  List.iter
    (fun (seed, utilization) ->
      let p = placed ~n:120 ~seed ~utilization lib in
      let t_exact = tiny_window p params in
      let before = Vm1.Wproblem.objective t_exact in
      let e = Vm1.Scp_solver.exact t_exact in
      (* fresh identical problem for the MILP *)
      let p2 = placed ~n:120 ~seed ~utilization lib in
      let t_milp = tiny_window p2 params in
      let sol = Vm1.Formulate.solve ~node_limit:20000 t_milp in
      checkb "milp found a solution" true
        (sol.Milp.Bnb.status <> Milp.Bnb.Infeasible);
      let milp_obj = Vm1.Wproblem.objective t_milp in
      Alcotest.(check (float 0.5))
        (Printf.sprintf "seed %d: MILP objective equals exhaustive optimum" seed)
        e.Vm1.Scp_solver.objective_after milp_obj;
      checkb "both improve or tie" true
        (milp_obj <= before +. 1e-6))
    cases

let test_milp_matches_exact_on_tiny_windows () =
  milp_matches_exact closed_lib closed_params
    [ (1, 0.72); (2, 0.72); (3, 0.72); (100, 0.7) ]

let test_milp_matches_exact_with_flip () =
  (* flip candidates flow through the SCP lambda model untouched; the MILP
     must still match exhaustive search when they are enabled *)
  let p = placed ~n:120 ~seed:8 closed_lib in
  let ws = Vm1.Window.partition p ~tx:0 ~ty:0 ~bw:14 ~bh:2 in
  let w =
    Array.to_list ws
    |> List.filter (fun (w : Vm1.Window.t) ->
           let k = List.length w.movable in
           k >= 2 && k <= 3)
    |> List.hd
  in
  let extract pl =
    Vm1.Wproblem.extract pl closed_params ~site_lo:w.site_lo ~row_lo:w.row_lo
      ~bw:w.bw ~bh:w.bh ~movable:w.movable ~lx:2 ~ly:1 ~allow_flip:true
      ~allow_move:true
  in
  let te = extract p in
  let e = Vm1.Scp_solver.exact te in
  let p2 = placed ~n:120 ~seed:8 closed_lib in
  let t2 = extract p2 in
  ignore (Vm1.Formulate.solve ~node_limit:30000 t2);
  Alcotest.(check (float 0.5)) "flip-enabled MILP equals exhaustive"
    e.Vm1.Scp_solver.objective_after (Vm1.Wproblem.objective t2)

let test_milp_matches_exact_openm1 () =
  milp_matches_exact open_lib open_params [ (4, 0.72); (178, 0.7) ]

(* --- the solver ladder: one window sample through every solver --- *)

(* The first 8 windows of 14x2 sites holding 2-4 movable cells of the
   aes/32 ClosedM1 placement, each extracted fresh (lx 2, ly 1, no flip)
   and solved by greedy, annealing, exhaustive search and the MILP. The
   summed objectives are pinned: exact and MILP agree on the optimum,
   annealing closes a fifth of greedy's gap to it. *)
let test_solver_ladder () =
  let p =
    Report.Flow.prepare ~scale:32 Netlist.Designs.Aes Pdk.Cell_arch.Closed_m1
  in
  let params = Vm1.Params.default p.Place.Placement.tech in
  let windows =
    Vm1.Window.partition p ~tx:0 ~ty:0 ~bw:14 ~bh:2
    |> Array.to_list
    |> List.filter (fun (w : Vm1.Window.t) ->
           let k = List.length w.movable in
           k >= 2 && k <= 4)
    |> List.filteri (fun i _ -> i < 8)
  in
  check "sample size" 8 (List.length windows);
  let total solve =
    List.fold_left
      (fun acc (w : Vm1.Window.t) ->
        let t =
          Vm1.Wproblem.extract p params ~site_lo:w.site_lo ~row_lo:w.row_lo
            ~bw:w.bw ~bh:w.bh ~movable:w.movable ~lx:2 ~ly:1
            ~allow_flip:false ~allow_move:true
        in
        solve t;
        acc +. Vm1.Wproblem.objective t)
      0.0 windows
  in
  let scp mode t = ignore (Vm1.Scp_solver.solve ~mode t) in
  List.iter
    (fun (name, expected, solve) ->
      Alcotest.(check (float 0.5)) name expected (total solve))
    [
      ("greedy", 57342.0, scp `Greedy);
      ("anneal", 57036.0, scp `Anneal);
      ("exact", 55788.0, fun t -> ignore (Vm1.Scp_solver.exact t));
      ("milp", 55788.0, fun t -> ignore (Vm1.Formulate.solve ~node_limit:50_000 t));
    ]

(* --- Scp_solver portfolio mode --- *)

let test_portfolio_not_worse_than_greedy () =
  (* greedy is one of the candidates and the winner is the best
     objective, so the portfolio can never lose to greedy alone *)
  let p = placed ~n:120 closed_lib in
  let tg = whole_die_problem p closed_params in
  let tp = Vm1.Wproblem.clone tg in
  let sg = Vm1.Scp_solver.solve ~mode:`Greedy tg in
  let sp = Vm1.Scp_solver.solve ~mode:`Portfolio tp in
  checkb "portfolio <= greedy" true
    (sp.Vm1.Scp_solver.objective_after
     <= sg.Vm1.Scp_solver.objective_after +. 1e-9);
  checkb "portfolio monotone" true
    (sp.Vm1.Scp_solver.objective_after
     <= sp.Vm1.Scp_solver.objective_before +. 1e-9)

let test_portfolio_deterministic () =
  (* the winner is a pure function of the problem, so repeated runs
     agree *)
  let run () =
    let p = placed ~n:200 closed_lib in
    let t = whole_die_problem p closed_params in
    ignore (Vm1.Scp_solver.solve ~mode:`Portfolio t);
    Vm1.Wproblem.commit t;
    p
  in
  let p1 = run () and p2 = run () in
  Alcotest.(check (array int)) "same xs" p1.Place.Placement.xs
    p2.Place.Placement.xs;
  Alcotest.(check (array int)) "same ys" p1.Place.Placement.ys
    p2.Place.Placement.ys

(* --- Wcache --- *)

let dummy_stats =
  {
    Vm1.Scp_solver.objective_before = 0.;
    objective_after = 0.;
    moves = 0;
    passes = 1;
  }

let dummy_qor = { Vm1.Wproblem.hpwl_dbu = 0; alignments = 0; overlap_sum = 0 }

let test_wcache_lru_eviction () =
  let c = Vm1.Wcache.create ~capacity:2 () in
  let entry =
    {
      Vm1.Wcache.assignment = [| 0 |];
      stats = dummy_stats;
      qor0 = dummy_qor;
      qor1 = dummy_qor;
    }
  in
  Vm1.Wcache.add c "a" entry;
  Vm1.Wcache.add c "b" entry;
  (* touch "a" so "b" is the LRU victim when "c" lands *)
  checkb "a hit" true (Vm1.Wcache.find c "a" <> None);
  Vm1.Wcache.add c "c" entry;
  check "capacity bound" 2 (Vm1.Wcache.length c);
  checkb "b evicted" true (Vm1.Wcache.find c "b" = None);
  checkb "a kept" true (Vm1.Wcache.find c "a" <> None);
  checkb "c kept" true (Vm1.Wcache.find c "c" <> None);
  let hits, misses = Vm1.Wcache.stats c in
  check "hits" 3 hits;
  check "misses" 1 misses

let test_wcache_hit_is_miss () =
  (* replaying a memoised assignment into the key-phase frame of a
     canonically-equal window, and committing it, lands every cell
     exactly where a fresh solve would; a frame keys as its tables *)
  let p1 = placed ~n:150 closed_lib in
  let p2 = placed ~n:150 closed_lib in
  let t1 = whole_die_problem p1 closed_params in
  let f2 = whole_die_frame p2 closed_params in
  let k1 = Vm1.Wcache.key ~mode:`Greedy t1 in
  let k2 = Vm1.Wcache.key ~mode:`Greedy (f2 :> Vm1.Wproblem.t) in
  Alcotest.(check string) "equal keys" k1 k2;
  Alcotest.(check string) "a frame keys as its tables" k2
    (Vm1.Wcache.key ~mode:`Greedy (Vm1.Wproblem.tables f2));
  let c = Vm1.Wcache.create () in
  let qor0 = Vm1.Wproblem.qor t1 in
  let s1 = Vm1.Scp_solver.solve ~mode:`Greedy t1 in
  Vm1.Wcache.add c k1
    {
      Vm1.Wcache.assignment = Vm1.Wproblem.assignment t1;
      stats = s1;
      qor0;
      qor1 = Vm1.Wproblem.qor t1;
    };
  (match Vm1.Wcache.find c k2 with
  | None -> Alcotest.fail "expected a cache hit"
  | Some e -> Vm1.Wproblem.replay f2 e.Vm1.Wcache.assignment);
  Vm1.Wproblem.commit t1;
  Vm1.Wproblem.commit (f2 :> Vm1.Wproblem.t);
  Alcotest.(check (array int)) "same xs" p1.Place.Placement.xs
    p2.Place.Placement.xs;
  Alcotest.(check (array int)) "same ys" p1.Place.Placement.ys
    p2.Place.Placement.ys

(* the attributes of every distopt.window span of one traced
   Dist_opt run, in trace order, and the window-cache hits, misses and
   table phases it counted *)
let traced_dist_opt p cfg =
  let counter name = Obs.Counter.value (Obs.counter name) in
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () ->
      ignore (Vm1.Dist_opt.run p closed_params cfg);
      let rec windows (s : Obs.Span.t) =
        (if String.equal s.name "distopt.window" then [ s.attrs ] else [])
        @ List.concat_map windows s.children
      in
      ( List.concat_map windows (Obs.snapshot ()).spans,
        counter "distopt.wcache_hits",
        counter "distopt.wcache_misses",
        counter "distopt.tables_built" ))

let test_dist_opt_cache_transparent () =
  (* a Dist_opt run with a window cache attached is byte-identical to one
     without; a warm rerun hits every window, builds no tables,
     reproduces the cold run's placement (orientations included) and
     reports the cold run's window attributes. Both DistOpt passes of
     Algorithm 1: perturbation, and flip-only. *)
  let cfg ~flip wcache =
    {
      Vm1.Dist_opt.tx = 0;
      ty = 0;
      bw = 40;
      bh = 6;
      lx = (if flip then 0 else 3);
      ly = (if flip then 0 else 1);
      allow_flip = flip;
      allow_move = not flip;
      mode = `Greedy;
      parallel = false;
      candidate_cost = None;
      wcache;
    }
  in
  let same_placement what (a : Place.Placement.t) (b : Place.Placement.t) =
    Alcotest.(check (array int)) (what ^ " (xs)") a.xs b.xs;
    Alcotest.(check (array int)) (what ^ " (ys)") a.ys b.ys;
    checkb (what ^ " (orients)") true (a.orients = b.orients)
  in
  List.iter
    (fun flip ->
      let pass = if flip then "flip-only: " else "perturbation: " in
      let bare = placed ~n:400 closed_lib in
      ignore (Vm1.Dist_opt.run bare closed_params (cfg ~flip None));
      let cache = Vm1.Wcache.create () in
      let cold = placed ~n:400 closed_lib in
      let cold_spans, cold_hits, cold_misses, cold_tables =
        traced_dist_opt cold (cfg ~flip (Some cache))
      in
      same_placement (pass ^ "cache on = cache off") bare cold;
      if flip then
        checkb (pass ^ "the pass flipped cells") true
          ((placed ~n:400 closed_lib).orients <> cold.orients);
      check (pass ^ "cold run: no hits") 0 cold_hits;
      check (pass ^ "cold run: a table phase per miss") cold_misses
        cold_tables;
      check (pass ^ "cold run: a span per window") cold_misses
        (List.length cold_spans);
      checkb (pass ^ "cold pass populated the cache") true
        (Vm1.Wcache.length cache > 0);
      let warm = placed ~n:400 closed_lib in
      let warm_spans, warm_hits, warm_misses, warm_tables =
        traced_dist_opt warm (cfg ~flip (Some cache))
      in
      check (pass ^ "warm run: every window hits") cold_misses warm_hits;
      check (pass ^ "warm run: no misses") 0 warm_misses;
      check (pass ^ "warm run: no table phase") 0 warm_tables;
      same_placement (pass ^ "warm replay = cold solve") cold warm;
      checkb (pass ^ "warm window spans = cold window spans") true
        (warm_spans = cold_spans))
    [ false; true ]

(* --- Dist_opt / Vm1_opt --- *)

let test_dist_opt_legal_and_improves () =
  let p = placed ~n:400 closed_lib in
  let before = Vm1.Objective.value closed_params p in
  let stats =
    Vm1.Dist_opt.run p closed_params
      {
        Vm1.Dist_opt.tx = 0;
        ty = 0;
        bw = 50;
        bh = 8;
        lx = 3;
        ly = 1;
        allow_flip = false;
        allow_move = true;
        mode = `Greedy;
        parallel = false;
        candidate_cost = None;
        wcache = None;
      }
  in
  let after = Vm1.Objective.value closed_params p in
  checkb "objective not worse" true (after <= before +. 1e-6);
  checkb "some windows" true (stats.Vm1.Dist_opt.windows > 0);
  Alcotest.(check (list string)) "legal" [] (Place.Legalize.check p)

let test_vm1_opt_improves_and_legal () =
  let p = placed ~n:400 closed_lib in
  let report = Vm1.Vm1_opt.run closed_params p in
  checkb "objective improves" true
    (report.Vm1.Vm1_opt.final_objective
     <= report.Vm1.Vm1_opt.initial_objective +. 1e-6);
  checkb "alignments increase" true
    ((Vm1.Objective.counts closed_params p).Vm1.Objective.alignments >= 0);
  Alcotest.(check (list string)) "legal" [] (Place.Legalize.check p)

let test_vm1_opt_deterministic () =
  let p1 = placed ~n:300 closed_lib in
  let p2 = placed ~n:300 closed_lib in
  ignore (Vm1.Vm1_opt.run closed_params p1);
  ignore (Vm1.Vm1_opt.run closed_params p2);
  Alcotest.(check (array int)) "same xs" p1.Place.Placement.xs p2.Place.Placement.xs

let test_vm1_opt_alpha_zero_pure_hpwl () =
  (* with alpha = 0 the optimiser is pure HPWL refinement: HPWL must not
     increase *)
  let p = placed ~n:300 closed_lib in
  let hpwl_before = Place.Hpwl.total p in
  let params = { closed_params with Vm1.Params.alpha = 0.0; epsilon = 0.0 } in
  ignore (Vm1.Vm1_opt.run params p);
  checkb "hpwl not worse" true (Place.Hpwl.total p <= hpwl_before)

let test_parallel_matches_sequential () =
  (* the distributable optimisation must be bit-identical to sequential *)
  let run parallel =
    let p = placed ~n:500 closed_lib in
    let cfg =
      {
        Vm1.Dist_opt.tx = 3;
        ty = 1;
        bw = 40;
        bh = 6;
        lx = 3;
        ly = 1;
        allow_flip = false;
        allow_move = true;
        mode = `Greedy;
        parallel;
        candidate_cost = None;
        wcache = None;
      }
    in
    ignore (Vm1.Dist_opt.run p closed_params cfg);
    p
  in
  let seq = run false and par = run true in
  Alcotest.(check (array int)) "same xs" seq.Place.Placement.xs par.Place.Placement.xs;
  Alcotest.(check (array int)) "same ys" seq.Place.Placement.ys par.Place.Placement.ys;
  Array.iteri
    (fun i o -> checkb "same orient" true (Geom.Orient.equal o par.Place.Placement.orients.(i)))
    seq.Place.Placement.orients

let test_vm1_opt_openm1 () =
  let p = placed ~n:300 open_lib in
  let before = (Vm1.Objective.counts open_params p).Vm1.Objective.alignments in
  ignore (Vm1.Vm1_opt.run open_params p);
  let after = (Vm1.Objective.counts open_params p).Vm1.Objective.alignments in
  checkb "overlapping pairs do not decrease" true (after >= before);
  Alcotest.(check (list string)) "legal" [] (Place.Legalize.check p)

let () =
  Alcotest.run "vm1"
    [
      ( "params",
        [
          Alcotest.test_case "defaults" `Quick test_params_defaults;
          Alcotest.test_case "sequences" `Quick test_params_sequences;
        ] );
      ( "align",
        [
          Alcotest.test_case "closed alignment" `Quick test_aligned_closed;
          Alcotest.test_case "open overlap" `Quick test_overlap_open;
          Alcotest.test_case "pair gain" `Quick test_pair_gain;
          Alcotest.test_case "candidate matches placed" `Quick
            test_align_of_candidate_matches_placed;
        ] );
      ( "objective",
        [
          Alcotest.test_case "hpwl agrees" `Quick test_objective_hpwl_matches_place;
          Alcotest.test_case "value formula" `Quick test_objective_value_formula;
          Alcotest.test_case "net pairs" `Quick test_net_pairs;
        ] );
      ( "window",
        [
          Alcotest.test_case "partition covers" `Quick
            test_partition_covers_all_interior_cells;
          Alcotest.test_case "diagonal batches" `Quick test_diagonal_batches_disjoint;
        ] );
      ( "wproblem",
        [
          Alcotest.test_case "candidate ranges" `Quick test_candidates_respect_ranges;
          Alcotest.test_case "flip-only" `Quick test_flip_only_candidates;
          Alcotest.test_case "delta consistency" `Quick
            test_objective_consistent_with_move_delta;
          Alcotest.test_case "commit legal" `Quick test_commit_writes_back_legal;
          Alcotest.test_case "shoves legal" `Quick test_shove_plans_stay_legal;
        ] );
      ( "scp_solver",
        [
          Alcotest.test_case "greedy monotone" `Quick test_greedy_never_worsens;
          Alcotest.test_case "exact beats greedy" `Quick test_exact_beats_or_ties_greedy;
          Alcotest.test_case "exact refuses large" `Quick test_exact_refuses_large;
          Alcotest.test_case "exact moves from input" `Quick
            test_exact_moves_from_input;
          Alcotest.test_case "anneal beats greedy" `Quick test_anneal_not_worse_than_greedy;
          Alcotest.test_case "anneal deterministic" `Quick test_anneal_deterministic;
          Alcotest.test_case "portfolio beats greedy" `Quick
            test_portfolio_not_worse_than_greedy;
          Alcotest.test_case "portfolio deterministic" `Quick
            test_portfolio_deterministic;
        ] );
      ( "formulate",
        [
          Alcotest.test_case "milp = exhaustive (closed)" `Slow
            test_milp_matches_exact_on_tiny_windows;
          Alcotest.test_case "milp = exhaustive (open)" `Slow
            test_milp_matches_exact_openm1;
          Alcotest.test_case "milp = exhaustive (flip)" `Slow
            test_milp_matches_exact_with_flip;
          Alcotest.test_case "solver ladder" `Quick test_solver_ladder;
        ] );
      ( "flow",
        [
          Alcotest.test_case "dist_opt" `Quick test_dist_opt_legal_and_improves;
          Alcotest.test_case "wcache lru" `Quick test_wcache_lru_eviction;
          Alcotest.test_case "wcache hit = miss" `Quick test_wcache_hit_is_miss;
          Alcotest.test_case "wcache transparent" `Quick
            test_dist_opt_cache_transparent;
          Alcotest.test_case "vm1_opt" `Quick test_vm1_opt_improves_and_legal;
          Alcotest.test_case "deterministic" `Quick test_vm1_opt_deterministic;
          Alcotest.test_case "alpha=0 pure hpwl" `Quick test_vm1_opt_alpha_zero_pure_hpwl;
          Alcotest.test_case "parallel = sequential" `Quick test_parallel_matches_sequential;
          Alcotest.test_case "openm1" `Quick test_vm1_opt_openm1;
        ] );
    ]
