(* Integration tests: the full generate -> place -> route -> optimise ->
   re-route pipeline, reproducing the qualitative shape of the paper's
   Table 2 on small designs. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let comparison arch =
  Report.Flow.run_comparison
    (Report.Flow.prepare ~scale:24 Netlist.Designs.Aes arch)

let closed = lazy (comparison Pdk.Cell_arch.Closed_m1)
let opened = lazy (comparison Pdk.Cell_arch.Open_m1)

let test_closed_dm1_increases () =
  let c = Lazy.force closed in
  checkb "dM1 increases substantially" true
    (c.Report.Flow.final.Report.Flow.dm1
     > c.Report.Flow.init.Report.Flow.dm1)

let test_closed_rwl_not_worse () =
  let c = Lazy.force closed in
  checkb "routed wirelength reduced" true
    (c.Report.Flow.final.Report.Flow.rwl_um
     <= c.Report.Flow.init.Report.Flow.rwl_um *. 1.001)

let test_closed_no_drv_regression () =
  let c = Lazy.force closed in
  checkb "DRVs do not increase" true
    (c.Report.Flow.final.Report.Flow.drvs <= c.Report.Flow.init.Report.Flow.drvs)

let test_closed_wns_clean () =
  let c = Lazy.force closed in
  checkb "initial timing met" true (c.Report.Flow.init.Report.Flow.wns_ns = 0.0);
  checkb "no adverse timing impact (paper's claim)" true
    (c.Report.Flow.final.Report.Flow.wns_ns >= -0.01)

let test_closed_power_not_worse () =
  let c = Lazy.force closed in
  checkb "power does not increase measurably" true
    (c.Report.Flow.final.Report.Flow.power_mw
     <= c.Report.Flow.init.Report.Flow.power_mw *. 1.005)

let test_open_dm1_increases_less () =
  (* the paper's key contrast: OpenM1 starts with far more dM1 and gains
     relatively less from the optimisation than ClosedM1 *)
  let c = Lazy.force closed and o = Lazy.force opened in
  checkb "openm1 improves" true
    (o.Report.Flow.final.Report.Flow.dm1 >= o.Report.Flow.init.Report.Flow.dm1);
  let ratio (x : Report.Flow.comparison) =
    float_of_int x.Report.Flow.final.Report.Flow.dm1
    /. float_of_int (max 1 x.Report.Flow.init.Report.Flow.dm1)
  in
  checkb "closed gains relatively more dM1 than open" true (ratio c > ratio o);
  checkb "open starts with more dM1 per instance" true
    (float_of_int o.Report.Flow.init.Report.Flow.dm1
     > float_of_int c.Report.Flow.init.Report.Flow.dm1)

let test_alignments_track_dm1 () =
  (* placement-level alignments are potential dM1: after optimisation the
     router should realise a comparable count *)
  let c = Lazy.force closed in
  checkb "final alignments positive" true
    (c.Report.Flow.final.Report.Flow.alignments > 0);
  checkb "router realises alignments" true
    (c.Report.Flow.final.Report.Flow.dm1
     >= c.Report.Flow.final.Report.Flow.alignments / 3)

let test_def_roundtrip_through_flow () =
  let p = Report.Flow.prepare ~scale:24 Netlist.Designs.M0 Pdk.Cell_arch.Closed_m1 in
  let params = Vm1.Params.default p.Place.Placement.tech in
  ignore (Vm1.Vm1_opt.run params p);
  let text = Io.Def.write p.design (Place.Placement.to_def p) in
  let d2, def2 =
    match Io.Def.read p.design.Netlist.Design.lib text with
    | Ok v -> v
    | Error msg -> Alcotest.failf "re-read of emitted DEF failed: %s" msg
  in
  let q = Place.Placement.of_def d2 def2 in
  Alcotest.(check (list string)) "round-tripped placement legal" []
    (Place.Legalize.check q);
  check "hpwl preserved" (Place.Hpwl.total p) (Place.Hpwl.total q)

let test_conv12_flow_runs () =
  (* the conventional architecture has no inter-row M1 at all; the flow
     must still run and find zero dM1 *)
  let p = Report.Flow.prepare ~scale:32 Netlist.Designs.M0 Pdk.Cell_arch.Conventional12 in
  let params = Vm1.Params.default p.Place.Placement.tech in
  let init, _ = Report.Flow.evaluate params p in
  check "no inter-row dM1 in conv12" 0 init.Report.Flow.dm1

let test_comparison_determinism () =
  let a = comparison Pdk.Cell_arch.Closed_m1 in
  let b = Lazy.force closed in
  check "same final dm1" b.Report.Flow.final.Report.Flow.dm1
    a.Report.Flow.final.Report.Flow.dm1

(* [baseline] is [evaluate] plus the route it measured, and
   [run_comparison] is [baseline] then [optimise] *)
let small () =
  Report.Flow.prepare ~scale:32 Netlist.Designs.M0 Pdk.Cell_arch.Closed_m1

let test_baseline_is_evaluate () =
  let p = small () in
  let params = Vm1.Params.default p.Place.Placement.tech in
  let e, clock_ps = Report.Flow.evaluate params p in
  let b, r = Report.Flow.baseline params p in
  checkb "same init eval" true (b.Report.Flow.init = e);
  checkb "same clock" true (b.Report.Flow.clock_ps = clock_ps);
  let s = Route.Metrics.summarize r in
  check "route's dM1 is the measured one" e.Report.Flow.dm1 s.Route.Metrics.dm1;
  check "route's via12 is the measured one" e.Report.Flow.via12 s.via12;
  check "route's DRVs are the measured ones" e.Report.Flow.drvs s.drvs

let test_baseline_then_optimise () =
  let a = Report.Flow.run_comparison (small ()) in
  let p = small () in
  let params = Vm1.Params.default p.Place.Placement.tech in
  let b, _ = Report.Flow.baseline params p in
  let c = Report.Flow.optimise params b p in
  checkb "same init" true (a.Report.Flow.init = c.Report.Flow.init);
  checkb "same final" true (a.Report.Flow.final = c.Report.Flow.final);
  check "same instances" a.Report.Flow.instances c.Report.Flow.instances

let () =
  Alcotest.run "flow"
    [
      ( "closedm1",
        [
          Alcotest.test_case "dm1 increases" `Quick test_closed_dm1_increases;
          Alcotest.test_case "rwl not worse" `Quick test_closed_rwl_not_worse;
          Alcotest.test_case "drv not worse" `Quick test_closed_no_drv_regression;
          Alcotest.test_case "wns clean" `Quick test_closed_wns_clean;
          Alcotest.test_case "power not worse" `Quick test_closed_power_not_worse;
        ] );
      ( "openm1",
        [
          Alcotest.test_case "contrast with closed" `Quick test_open_dm1_increases_less;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "alignments realised" `Quick test_alignments_track_dm1;
          Alcotest.test_case "def roundtrip" `Quick test_def_roundtrip_through_flow;
          Alcotest.test_case "conv12 runs" `Quick test_conv12_flow_runs;
          Alcotest.test_case "deterministic" `Quick test_comparison_determinism;
          Alcotest.test_case "baseline is evaluate" `Quick test_baseline_is_evaluate;
          Alcotest.test_case "baseline then optimise" `Quick
            test_baseline_then_optimise;
        ] );
    ]
