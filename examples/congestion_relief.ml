(* Congestion relief at high utilisation (the Fig. 8 story): tighter dies
   induce routing DRVs; direct vertical M1 routing moves traffic off the
   congested layers and removes a substantial fraction of them.

   Our synthetic designs route comfortably on the full 6-layer stack, so
   this experiment stresses the router with a 3-layer stack (M1-M3) —
   the regime where utilisation sweeps produce DRV growth.

   Run with: dune exec examples/congestion_relief.exe *)

let () =
  print_endline "aes ClosedM1 @ 1/16 scale, 3-layer stack, utilisation sweep:";
  print_endline "util   #DRV orig  #DRV opt   #dM1 orig  #dM1 opt";
  let router = { Route.Router.default_config with layers = 3 } in
  List.iter
    (fun utilization ->
      let p =
        Report.Flow.prepare ~scale:16 ~utilization Netlist.Designs.Aes
          Pdk.Cell_arch.Closed_m1
      in
      let c = Report.Flow.run_comparison ~router_config:router p in
      let init = c.Report.Flow.init and final = c.Report.Flow.final in
      Printf.printf "%.0f%%   %9d  %8d   %9d  %8d\n%!"
        (utilization *. 100.0) init.Report.Flow.drvs final.Report.Flow.drvs
        init.Report.Flow.dm1 final.Report.Flow.dm1)
    [ 0.78; 0.84; 0.90 ]
