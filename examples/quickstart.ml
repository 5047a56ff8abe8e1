(* Quickstart: generate a small ClosedM1 design, place it, route it,
   run the vertical-M1 detailed placement optimisation, re-route, and
   print the before/after metrics.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* 1. a 7nm-class ClosedM1 library and a synthetic design calibrated to
     the paper's "aes" testcase, scaled down 16x for a fast demo *)
  let placement =
    Report.Flow.prepare ~scale:16 Netlist.Designs.Aes Pdk.Cell_arch.Closed_m1
  in
  print_endline (Netlist.Design.stats placement.Place.Placement.design);

  (* 2. with the paper-default parameters (alpha = 1200, beta = 1,
     gamma = 3): route the initial placement and measure, run
     Algorithm 1 (VM1Opt) with the preferred sequence (20um, lx=4,
     ly=1), then re-route and measure again — more direct vertical M1
     routes, shorter routed wirelength, fewer M1->M2 vias *)
  let c = Report.Flow.run_comparison placement in
  let init = c.Report.Flow.init and final = c.Report.Flow.final in
  Printf.printf "initial : #dM1 %4d  RWL %8.1f um  #via12 %5d  DRVs %d\n"
    init.Report.Flow.dm1 init.Report.Flow.rwl_um init.Report.Flow.via12
    init.Report.Flow.drvs;
  Printf.printf "optimiser: %.2fs\n" c.Report.Flow.opt_runtime_s;
  Printf.printf "final   : #dM1 %4d  RWL %8.1f um  #via12 %5d  DRVs %d\n"
    final.Report.Flow.dm1 final.Report.Flow.rwl_um final.Report.Flow.via12
    final.Report.Flow.drvs;
  Printf.printf "deltas  : #dM1 %+.0f%%  RWL %+.1f%%  #via12 %+.1f%%\n"
    (Report.Flow.delta_pct (float_of_int init.Report.Flow.dm1)
       (float_of_int final.Report.Flow.dm1))
    (Report.Flow.delta_pct init.Report.Flow.rwl_um final.Report.Flow.rwl_um)
    (Report.Flow.delta_pct
       (float_of_int init.Report.Flow.via12)
       (float_of_int final.Report.Flow.via12))
