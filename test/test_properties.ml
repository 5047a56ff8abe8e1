(* Cross-module property-based tests: randomised designs and placements
   exercised through the full substrate stack. *)

let lib = Pdk.Libgen.generate (Pdk.Tech.default Pdk.Cell_arch.Closed_m1)

let design_of_seed ?(n = 120) seed =
  Netlist.Generator.generate lib
    (Netlist.Generator.default_config ~n_instances:n ~seed)
    ~name:(Printf.sprintf "prop%d" seed)

(* every generated netlist is referentially valid *)
let prop_generator_always_valid =
  QCheck2.Test.make ~name:"generator always valid" ~count:30
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed -> Netlist.Design.validate (design_of_seed seed) = [])

(* the legaliser produces a legal placement from arbitrary targets *)
let prop_legalizer_always_legal =
  QCheck2.Test.make ~name:"legaliser always legal" ~count:25
    QCheck2.Gen.(triple (int_range 1 1000) (int_range 50 95) (int_range 0 3))
    (fun (seed, util_pct, pattern) ->
      let d = design_of_seed seed in
      let p =
        Place.Placement.create d ~utilization:(float_of_int util_pct /. 100.0)
      in
      let rng = Random.State.make [| seed; pattern |] in
      let w = Geom.Rect.width p.die and h = Geom.Rect.height p.die in
      Array.iteri
        (fun i _ ->
          let x, y =
            match pattern with
            | 0 -> (0, 0)
            | 1 -> (w, h)
            | 2 -> (w / 2, h / 2)
            | _ -> (Random.State.int rng (w + 1), Random.State.int rng (h + 1))
          in
          p.xs.(i) <- x;
          p.ys.(i) <- y)
        p.xs;
      Place.Legalize.legalize p;
      Place.Legalize.check p = [])

(* global placement never loses legality, for any seed *)
let prop_global_place_legal =
  QCheck2.Test.make ~name:"global placement always legal" ~count:15
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let p = Place.Placement.create (design_of_seed seed) ~utilization:0.72 in
      Place.Global.place p;
      Place.Legalize.check p = [])

(* routed paths are structurally connected: consecutive edges share a
   node, and endpoints land on src/dst access points or tree nodes *)
let path_is_connected g (path : int array) =
  let endpoints c =
    match Route.Router.edge_of_code c with
    | Route.Router.Wire n -> (n, Route.Grid.wire_dest g n)
    | Route.Router.Via n -> (n, Route.Grid.via_dest g n)
  in
  let ok = ref true in
  for k = 0 to Array.length path - 2 do
    let a1, a2 = endpoints path.(k) and b1, b2 = endpoints path.(k + 1) in
    if not (a1 = b1 || a1 = b2 || a2 = b1 || a2 = b2) then ok := false
  done;
  !ok

let prop_routed_paths_connected =
  QCheck2.Test.make ~name:"routed paths are connected edge chains" ~count:8
    QCheck2.Gen.(int_range 1 1000)
    (fun seed ->
      let p = Place.Placement.create (design_of_seed seed) ~utilization:0.7 in
      Place.Global.place p;
      let r = Route.Router.route p in
      Array.for_all
        (fun (nr : Route.Router.net_route) ->
          Array.for_all
            (fun (sn : Route.Router.subnet) ->
              (not sn.routed) || path_is_connected r.grid sn.path)
            nr.subnets)
        r.routes)

(* grid usage equals the sum over stored paths (no leaks, no double
   counting), even after rip-up-and-reroute *)
let prop_usage_consistent =
  QCheck2.Test.make ~name:"router usage bookkeeping consistent" ~count:8
    QCheck2.Gen.(int_range 1 1000)
    (fun seed ->
      let p = Place.Placement.create (design_of_seed seed) ~utilization:0.8 in
      Place.Global.place p;
      let r = Route.Router.route p in
      let g = r.grid in
      let size = Route.Grid.node_count g in
      let wire = Array.make size 0 and via = Array.make size 0 in
      Array.iter
        (fun (nr : Route.Router.net_route) ->
          Array.iter
            (fun (sn : Route.Router.subnet) ->
              Array.iter
                (fun c ->
                  match Route.Router.edge_of_code c with
                  | Route.Router.Wire n -> wire.(n) <- wire.(n) + 1
                  | Route.Router.Via n -> via.(n) <- via.(n) + 1)
                sn.path)
            nr.subnets)
        r.routes;
      let ok = ref true in
      for n = 0 to size - 1 do
        if wire.(n) <> Route.Grid.wire_usage g n then ok := false;
        if via.(n) <> Route.Grid.via_usage g n then ok := false
      done;
      !ok)

(* the track-range pin-access index built at grid construction agrees
   with the original full-grid scan, for every pin of every cell
   architecture, and never reports a node twice *)
let prop_pin_access_index_matches_scan =
  QCheck2.Test.make ~name:"pin-access index = full scan (all archs)" ~count:9
    QCheck2.Gen.(pair (int_range 1 10_000) (int_range 0 2))
    (fun (seed, archno) ->
      let arch =
        match archno with
        | 0 -> Pdk.Cell_arch.Conventional12
        | 1 -> Pdk.Cell_arch.Closed_m1
        | _ -> Pdk.Cell_arch.Open_m1
      in
      let archlib = Pdk.Libgen.generate (Pdk.Tech.default arch) in
      let d =
        Netlist.Generator.generate archlib
          (Netlist.Generator.default_config ~n_instances:80 ~seed)
          ~name:"pa"
      in
      let p = Place.Placement.create d ~utilization:0.7 in
      Place.Global.place p;
      let g = Route.Grid.of_placement p in
      let ok = ref true in
      Array.iteri
        (fun i (inst : Netlist.Design.instance) ->
          List.iteri
            (fun k _ ->
              let pr = { Netlist.Design.inst = i; pin = k } in
              let idx = Route.Grid.pin_access g pr in
              let scan = Route.Grid.pin_access_scan g pr in
              if List.sort_uniq Int.compare idx <> List.sort Int.compare idx
              then ok := false;
              if List.sort Int.compare idx <> List.sort Int.compare scan then
                ok := false)
            inst.master.Pdk.Stdcell.pins)
        p.design.Netlist.Design.instances;
      !ok)

(* window move_delta always matches a full objective recompute *)
let prop_move_delta_exact =
  QCheck2.Test.make ~name:"move_delta equals objective recompute" ~count:12
    QCheck2.Gen.(pair (int_range 1 1000) (int_range 0 1000))
    (fun (seed, pick) ->
      let p = Place.Placement.create (design_of_seed seed) ~utilization:0.72 in
      Place.Global.place p;
      let params = Vm1.Params.default p.Place.Placement.tech in
      let movable = List.init (Place.Placement.num_instances p) (fun i -> i) in
      let t =
        Vm1.Wproblem.extract p params ~site_lo:0 ~row_lo:0
          ~bw:p.Place.Placement.sites_per_row ~bh:p.Place.Placement.num_rows
          ~movable ~lx:3 ~ly:1 ~allow_flip:true ~allow_move:true
      in
      let n = Array.length t.Vm1.Wproblem.cells in
      let cell = pick mod n in
      let c = t.Vm1.Wproblem.cells.(cell) in
      let k = Array.length c.Vm1.Wproblem.cands in
      let cand = (pick * 7) mod k in
      if cand = c.Vm1.Wproblem.cur
         || not (Vm1.Wproblem.candidate_free t ~cell ~cand)
      then true
      else begin
        let before = Vm1.Wproblem.objective t in
        let delta = Vm1.Wproblem.move_delta t ~cell ~cand in
        Vm1.Wproblem.apply t ~cell ~cand;
        let after = Vm1.Wproblem.objective t in
        abs_float (after -. before -. delta) < 0.01
      end)

(* the greedy window solver never worsens the objective and never breaks
   legality, for any seed and perturbation range *)
let prop_greedy_monotone_legal =
  QCheck2.Test.make ~name:"greedy solver monotone and legal" ~count:10
    QCheck2.Gen.(triple (int_range 1 1000) (int_range 1 5) (int_range 0 1))
    (fun (seed, lx, ly) ->
      let p = Place.Placement.create (design_of_seed seed) ~utilization:0.75 in
      Place.Global.place p;
      let params = Vm1.Params.default p.Place.Placement.tech in
      let movable = List.init (Place.Placement.num_instances p) (fun i -> i) in
      let t =
        Vm1.Wproblem.extract p params ~site_lo:0 ~row_lo:0
          ~bw:p.Place.Placement.sites_per_row ~bh:p.Place.Placement.num_rows
          ~movable ~lx ~ly ~allow_flip:false ~allow_move:true
      in
      let stats = Vm1.Scp_solver.solve ~mode:`Greedy t in
      Vm1.Wproblem.commit t;
      stats.Vm1.Scp_solver.objective_after
      <= stats.Vm1.Scp_solver.objective_before +. 1e-6
      && Place.Legalize.check p = [])

(* DEF round-trips for arbitrary generated designs and placements *)
let prop_def_roundtrip =
  QCheck2.Test.make ~name:"DEF round-trip" ~count:15
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let d = design_of_seed ~n:60 seed in
      let p = Place.Placement.create d ~utilization:0.7 in
      Place.Global.place p;
      let text = Io.Def.write d (Place.Placement.to_def p) in
      match Io.Def.read lib text with
      | Error _ -> false
      | Ok (d2, def2) ->
        let p2 = Place.Placement.of_def d2 def2 in
        Netlist.Design.validate d2 = []
        && Place.Hpwl.total p = Place.Hpwl.total p2)

(* the row DP never worsens total HPWL *)
let prop_row_dp_monotone =
  QCheck2.Test.make ~name:"row DP monotone in HPWL" ~count:10
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let p = Place.Placement.create (design_of_seed seed) ~utilization:0.75 in
      Place.Global.place p;
      let before = Place.Hpwl.total p in
      ignore (Place.Row_opt.optimize ~passes:1 p);
      Place.Hpwl.total p <= before && Place.Legalize.check p = [])

(* the exact MILP (constraints (1)-(14)) agrees with exhaustive search on
   random small windows, both architectures *)
let prop_milp_equals_exhaustive =
  QCheck2.Test.make ~name:"MILP = exhaustive on random windows" ~count:6
    QCheck2.Gen.(pair (int_range 1 500) bool)
    (fun (seed, open_m1) ->
      let arch = if open_m1 then Pdk.Cell_arch.Open_m1 else Pdk.Cell_arch.Closed_m1 in
      let archlib = Pdk.Libgen.generate (Pdk.Tech.default arch) in
      let d =
        Netlist.Generator.generate archlib
          (Netlist.Generator.default_config ~n_instances:120 ~seed)
          ~name:"w"
      in
      let p = Place.Placement.create d ~utilization:0.7 in
      Place.Global.place p;
      let params = Vm1.Params.default p.Place.Placement.tech in
      let pick () =
        let ws = Vm1.Window.partition p ~tx:0 ~ty:0 ~bw:14 ~bh:2 in
        Array.to_list ws
        |> List.filter (fun (w : Vm1.Window.t) ->
               let k = List.length w.movable in
               k >= 2 && k <= 4)
      in
      match pick () with
      | [] -> true (* no suitable window for this seed *)
      | w :: _ ->
        let extract () =
          Vm1.Wproblem.extract p params ~site_lo:w.site_lo ~row_lo:w.row_lo
            ~bw:w.bw ~bh:w.bh ~movable:w.movable ~lx:2 ~ly:1
            ~allow_flip:false ~allow_move:true
        in
        let te = extract () in
        let saved = Array.map (fun (c : Vm1.Wproblem.cell) -> c.cur) te.cells in
        ignore (Vm1.Scp_solver.exact te);
        let exact_obj = Vm1.Wproblem.objective te in
        (* fresh problem, same initial state *)
        let tm = extract () in
        Array.iteri (fun i cand -> Vm1.Wproblem.apply tm ~cell:i ~cand) saved;
        ignore (Vm1.Formulate.solve ~node_limit:30_000 tm);
        abs_float (Vm1.Wproblem.objective tm -. exact_obj) < 0.5)

(* diagonal batches always have pairwise-disjoint projections and cover
   every window, for arbitrary grid offsets *)
let prop_diagonal_batches =
  QCheck2.Test.make ~name:"diagonal batches disjoint and covering" ~count:25
    QCheck2.Gen.(quad (int_range 1 500) (int_range 0 30) (int_range 0 5)
                   (pair (int_range 8 60) (int_range 2 10)))
    (fun (seed, tx, ty, (bw, bh)) ->
      let p = Place.Placement.create (design_of_seed seed) ~utilization:0.72 in
      Place.Global.place p;
      let ws = Vm1.Window.partition p ~tx ~ty ~bw ~bh in
      let batches = Vm1.Window.diagonal_batches ws in
      let total = List.fold_left (fun acc b -> acc + Array.length b) 0 batches in
      total = Array.length ws
      && List.for_all
           (fun batch ->
             let ok = ref true in
             Array.iteri
               (fun i (a : Vm1.Window.t) ->
                 Array.iteri
                   (fun j (b : Vm1.Window.t) ->
                     if i < j && (a.ix = b.ix || a.iy = b.iy) then ok := false)
                   batch)
               batch;
             !ok)
           batches)

(* instrumentation is observation-only: with tracing enabled the
   optimiser produces the exact same placement as with it disabled,
   sequentially and under domain-parallel batch solving *)
let prop_instrumented_run_identical =
  QCheck2.Test.make ~name:"instrumented run = uninstrumented run" ~count:6
    QCheck2.Gen.(pair (int_range 1 1000) bool)
    (fun (seed, parallel) ->
      let p = Place.Placement.create (design_of_seed seed) ~utilization:0.72 in
      Place.Global.place p;
      let q = Place.Placement.copy p in
      let params = Vm1.Params.default p.Place.Placement.tech in
      let cfg =
        {
          Vm1.Dist_opt.tx = 0;
          ty = 0;
          bw = 40;
          bh = 6;
          lx = 3;
          ly = 1;
          allow_flip = true;
          allow_move = true;
          mode = `Greedy;
          parallel;
          candidate_cost = None;
          wcache = None;
        }
      in
      Obs.set_enabled false;
      let s1 = Vm1.Dist_opt.run p params cfg in
      Obs.set_enabled true;
      let s2 =
        Fun.protect
          ~finally:(fun () -> Obs.set_enabled false)
          (fun () -> Vm1.Dist_opt.run q params cfg)
      in
      s1.Vm1.Dist_opt.total_moves = s2.Vm1.Dist_opt.total_moves
      && p.Place.Placement.xs = q.Place.Placement.xs
      && p.Place.Placement.ys = q.Place.Placement.ys
      && p.Place.Placement.orients = q.Place.Placement.orients)

(* the window cache's canonical form is translation-invariant: a window
   and its (dx, dy)-shifted copy produce the same key, and replaying the
   original's memoised assignment into the shifted window lands every
   cell exactly where a fresh solve of the shifted window would *)
let prop_wcache_translation_invariant =
  QCheck2.Test.make ~name:"window cache key translation-invariant" ~count:10
    QCheck2.Gen.(triple (int_range 1 1000) (int_range 0 4) (int_range 0 2))
    (fun (seed, dxr, dyr) ->
      let p = Place.Placement.create (design_of_seed seed) ~utilization:0.70 in
      Place.Global.place p;
      let params = Vm1.Params.default p.Place.Placement.tech in
      let ws = Vm1.Window.partition p ~tx:0 ~ty:0 ~bw:14 ~bh:2 in
      match
        Array.to_list ws
        |> List.find_opt (fun (w : Vm1.Window.t) -> w.movable <> [])
      with
      | None -> true
      | Some w ->
        let tech = p.Place.Placement.tech in
        let sw = tech.Pdk.Tech.site_width
        and rh = tech.Pdk.Tech.row_height in
        (* clamp the shift so the moved window stays inside the die:
           die-boundary clipping of the candidate lattice is part of the
           canonical form, so a window pushed into the edge is a
           different problem, not a translated copy *)
        let max_dx = p.Place.Placement.sites_per_row - (w.site_lo + w.bw) in
        let max_dy = p.Place.Placement.num_rows - (w.row_lo + w.bh) in
        let dx = min dxr (max 0 max_dx) and dy = min dyr (max 0 max_dy) in
        let extract_at pl ~site_lo ~row_lo =
          Vm1.Wproblem.extract pl params ~site_lo ~row_lo ~bw:w.bw ~bh:w.bh
            ~movable:w.movable ~lx:2 ~ly:1 ~allow_flip:true ~allow_move:true
        in
        let t1 = extract_at p ~site_lo:w.site_lo ~row_lo:w.row_lo in
        let q = Place.Placement.copy p in
        Array.iteri
          (fun i x -> q.Place.Placement.xs.(i) <- x + (dx * sw))
          p.Place.Placement.xs;
        Array.iteri
          (fun i y -> q.Place.Placement.ys.(i) <- y + (dy * rh))
          p.Place.Placement.ys;
        let site_lo = w.site_lo + dx and row_lo = w.row_lo + dy in
        let t2 = extract_at q ~site_lo ~row_lo in
        let key1 = Vm1.Wcache.key ~mode:`Greedy t1 in
        let key2 = Vm1.Wcache.key ~mode:`Greedy t2 in
        let t2_fresh = extract_at q ~site_lo ~row_lo in
        let s_fresh = Vm1.Scp_solver.solve ~mode:`Greedy t2_fresh in
        let cache = Vm1.Wcache.create () in
        let qor0 = Vm1.Wproblem.qor t1 in
        let s1 = Vm1.Scp_solver.solve ~mode:`Greedy t1 in
        Vm1.Wcache.add cache key1
          {
            Vm1.Wcache.assignment = Vm1.Wproblem.assignment t1;
            stats = s1;
            qor0;
            qor1 = Vm1.Wproblem.qor t1;
          };
        (match Vm1.Wcache.find cache key2 with
        | None -> false
        | Some entry ->
          Vm1.Wproblem.set_assignment t2 entry.Vm1.Wcache.assignment;
          String.equal key1 key2
          && Vm1.Wproblem.assignment t2 = Vm1.Wproblem.assignment t2_fresh
          && s1.Vm1.Scp_solver.objective_after
             = s_fresh.Vm1.Scp_solver.objective_after))

(* STA: lengthening any single net never shortens the critical path *)
let prop_sta_monotone =
  QCheck2.Test.make ~name:"STA monotone in net length" ~count:20
    QCheck2.Gen.(pair (int_range 1 500) (int_range 0 10_000))
    (fun (seed, pick) ->
      let d = design_of_seed ~n:150 seed in
      let nn = Netlist.Design.num_nets d in
      let lengths = Array.make nn 500 in
      let base = Sta.Timing.analyze d ~net_lengths:lengths in
      let target = pick mod nn in
      lengths.(target) <- lengths.(target) + 100_000;
      let bumped = Sta.Timing.analyze d ~net_lengths:lengths in
      bumped.Sta.Timing.critical_ps >= base.Sta.Timing.critical_ps -. 1e-9)

let () =
  Alcotest.run "properties"
    [
      ( "substrates",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_generator_always_valid;
            prop_legalizer_always_legal;
            prop_global_place_legal;
            prop_def_roundtrip;
            prop_row_dp_monotone;
          ] );
      ( "router",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_routed_paths_connected; prop_usage_consistent;
            prop_pin_access_index_matches_scan;
          ] );
      ( "optimizer",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_move_delta_exact; prop_greedy_monotone_legal;
            prop_milp_equals_exhaustive; prop_diagonal_batches;
            prop_instrumented_run_identical;
            prop_wcache_translation_invariant;
          ] );
      ( "sta",
        List.map QCheck_alcotest.to_alcotest [ prop_sta_monotone ] );
    ]
