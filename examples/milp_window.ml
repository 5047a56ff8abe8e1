(* Driving the MILP formulation directly (Section 3 of the paper).

   This example cuts one window out of a placed design, builds the exact
   MILP of constraints (1)-(9) over it — SCP lambda variables, per-net
   HPWL bounding variables, big-G alignment indicators — solves it with
   the bundled branch-and-bound, and cross-checks the result against
   exhaustive search over the same window.

   Run with: dune exec examples/milp_window.exe *)

let () =
  let lib = Pdk.Libgen.generate (Pdk.Tech.default Pdk.Cell_arch.Closed_m1) in
  let design =
    Netlist.Generator.generate lib
      (Netlist.Generator.default_config ~n_instances:150 ~seed:42)
      ~name:"demo"
  in
  let p = Place.Placement.create design ~utilization:0.7 in
  Place.Global.place p;
  let params = Vm1.Params.default p.Place.Placement.tech in

  (* pick a small window with a handful of movable cells *)
  let windows = Vm1.Window.partition p ~tx:0 ~ty:0 ~bw:14 ~bh:2 in
  let w =
    Array.to_list windows
    |> List.filter (fun (w : Vm1.Window.t) ->
           let k = List.length w.movable in
           k >= 2 && k <= 4)
    |> List.hd
  in
  Printf.printf "window at site %d row %d: %d movable cells\n" w.site_lo
    w.row_lo (List.length w.movable);

  let extract () =
    Vm1.Wproblem.extract p params ~site_lo:w.site_lo ~row_lo:w.row_lo ~bw:w.bw
      ~bh:w.bh ~movable:w.movable ~lx:2 ~ly:1 ~allow_flip:true
      ~allow_move:true
  in

  (* the MILP path *)
  let prob = extract () in
  Printf.printf "problem: %d nets, %d feasible dM1 pairs, %d candidates total\n"
    (Array.length prob.Vm1.Wproblem.net_weight)
    (Vm1.Wproblem.num_pairs prob)
    (Array.fold_left
       (fun acc (c : Vm1.Wproblem.cell) -> acc + Array.length c.cands)
       0 prob.Vm1.Wproblem.cells);
  let built = Vm1.Formulate.build prob in
  Printf.printf "MILP: %d variables (%d binary)\n"
    (Milp.Model.num_vars built.Vm1.Formulate.model)
    (List.length (Milp.Model.binaries built.Vm1.Formulate.model));
  let before = Vm1.Wproblem.objective prob in
  let sol = Vm1.Formulate.solve ~node_limit:50_000 prob in
  Printf.printf "branch-and-bound: %d nodes, status %s\n"
    sol.Milp.Bnb.nodes_explored
    (match sol.Milp.Bnb.status with
     | Milp.Bnb.Optimal -> "optimal"
     | Milp.Bnb.Node_limit -> "node limit (best incumbent)"
     | Milp.Bnb.Infeasible -> "infeasible");
  let milp_obj = Vm1.Wproblem.objective prob in
  Printf.printf "window objective: %.0f -> %.0f\n" before milp_obj;

  (* cross-check against exhaustive search on a fresh copy *)
  let prob2 = extract () in
  let stats = Vm1.Scp_solver.exact prob2 in
  Printf.printf "exhaustive optimum: %.0f (%s)\n"
    stats.Vm1.Scp_solver.objective_after
    (if abs_float (stats.Vm1.Scp_solver.objective_after -. milp_obj) < 0.5
     then "MILP agrees" else "MISMATCH");
  ()
