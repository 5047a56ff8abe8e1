(* The paper's central contrast (Sections 1.1 and 5.2): the same netlist
   bound to the ClosedM1 and OpenM1 cell architectures behaves very
   differently under vertical-M1-aware detailed placement.

   - ClosedM1 pins are 1D vertical M1 segments: a dM1 needs *exact* track
     alignment, so the initial placement offers few; the optimiser
     multiplies them several-fold.
   - OpenM1 pins are horizontal M0 segments: any sufficient x-overlap
     allows a dM1, so many exist before optimisation and the relative
     gain is smaller.

   Run with: dune exec examples/closedm1_vs_openm1.exe *)

let run arch =
  let c =
    Report.Flow.run_comparison
      (Report.Flow.prepare ~scale:16 Netlist.Designs.Aes arch)
  in
  let i = c.Report.Flow.init and f = c.Report.Flow.final in
  let dm1_delta =
    if i.Report.Flow.dm1 = 0 then "   n/a "
    else
      Printf.sprintf "%+6.1f%%"
        (Report.Flow.delta_pct
           (float_of_int i.Report.Flow.dm1)
           (float_of_int f.Report.Flow.dm1))
  in
  Printf.printf
    "%-9s  #dM1 %4d -> %4d (%s)   RWL %8.1f -> %8.1f um (%+5.2f%%)\n"
    (Pdk.Cell_arch.to_string arch) i.Report.Flow.dm1 f.Report.Flow.dm1
    dm1_delta i.Report.Flow.rwl_um f.Report.Flow.rwl_um
    (Report.Flow.delta_pct i.Report.Flow.rwl_um f.Report.Flow.rwl_um);
  (i, f)

let () =
  print_endline "aes @ 1/16 scale, utilisation 75%:";
  let ci, cf = run Pdk.Cell_arch.Closed_m1 in
  let oi, _of_ = run Pdk.Cell_arch.Open_m1 in
  (* the conventional 12-track architecture cannot route inter-row M1 at
     all: its horizontal M1 power rails block every crossing (Fig. 1a) *)
  let conv_i, conv_f = run Pdk.Cell_arch.Conventional12 in
  assert (conv_i.Report.Flow.dm1 = 0 && conv_f.Report.Flow.dm1 = 0);
  print_newline ();
  Printf.printf
    "OpenM1 starts with %.1fx the dM1 of ClosedM1 (pin overlap is easy);\n"
    (float_of_int oi.Report.Flow.dm1 /. float_of_int (max 1 ci.Report.Flow.dm1));
  Printf.printf
    "ClosedM1 gains %.1fx from optimisation (alignment must be created).\n"
    (float_of_int cf.Report.Flow.dm1 /. float_of_int (max 1 ci.Report.Flow.dm1))
