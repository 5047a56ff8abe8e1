(* Flow-sanitizer tests: every lib/check oracle passes on a freshly
   prepared flow and rejects a seeded corruption — overlapping and
   off-grid placements, a dangling net pin, a tampered routing result, an
   infeasible MILP assignment and a corrupted DEF dump. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let prepare arch = Report.Flow.prepare ~scale:32 Netlist.Designs.M0 arch

(* One placement per architecture, built once; tests that mutate take a
   [Place.Placement.copy]. *)
let prepared =
  lazy
    (List.map
       (fun a -> (a, prepare a))
       [
         Pdk.Cell_arch.Closed_m1;
         Pdk.Cell_arch.Open_m1;
         Pdk.Cell_arch.Conventional12;
       ])

let closedm1 () = List.assoc Pdk.Cell_arch.Closed_m1 (Lazy.force prepared)

let params_of (p : Place.Placement.t) = Vm1.Params.default p.tech

(* --- the whole sanitizer passes on every architecture --- *)

let test_flow_passes (arch, p) () =
  let findings = Check.flow (params_of p) p in
  check_int "six oracles ran" 6 (List.length findings);
  List.iter
    (fun (f : Check.finding) ->
      check_bool
        (Printf.sprintf "%s oracle clean (%s)" f.oracle
           (Pdk.Cell_arch.to_string arch))
        true (f.problems = []))
    findings

(* --- corrupted DEF dumps are rejected on read --- *)

let test_corrupted_def () =
  let lib = Pdk.Libgen.generate (Pdk.Tech.default Pdk.Cell_arch.Closed_m1) in
  (match Io.Def.read lib "THIS IS NOT A PLACEMENT DUMP\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage DEF accepted");
  let p = closedm1 () in
  let good = Io.Def.write p.design (Place.Placement.to_def p) in
  (* truncating mid-dump must not silently yield a partial design *)
  match Io.Def.read lib (String.sub good 0 (String.length good / 2)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated DEF accepted"

(* --- illegal placements are rejected by both checkers --- *)

let test_overlap_rejected () =
  let p = Place.Placement.copy (closedm1 ()) in
  check_int "fixture is legal" 0 (List.length (Check.placement p));
  Place.Placement.move p 1
    ~site:(Place.Placement.site_of_inst p 0)
    ~row:(Place.Placement.row_of_inst p 0)
    ~orient:p.orients.(1);
  check_bool "Check.placement rejects overlap" true (Check.placement p <> []);
  check_bool "Legalize.check rejects overlap" true
    (Place.Legalize.check p <> [])

let test_off_grid_rejected () =
  let p = Place.Placement.copy (closedm1 ()) in
  p.xs.(0) <- p.xs.(0) + 1;
  check_bool "Check.placement rejects off-site x" true
    (Check.placement p <> []);
  check_bool "Legalize.check rejects off-site x" true
    (Place.Legalize.check p <> [])

let test_outside_die_rejected () =
  let p = Place.Placement.copy (closedm1 ()) in
  p.ys.(0) <- p.ys.(0) - (2 * p.tech.Pdk.Tech.row_height);
  check_bool "Check.placement rejects out-of-die" true
    (Check.placement p <> [])

(* --- referential corruption is rejected by the design oracle --- *)

let test_dangling_pin_rejected () =
  let d = (closedm1 ()).design in
  check_int "fixture validates" 0 (List.length (Check.design d));
  let nets = Array.copy d.nets in
  nets.(0) <-
    {
      (nets.(0)) with
      Netlist.Design.pins =
        Array.append nets.(0).Netlist.Design.pins
          [| { Netlist.Design.inst = 999_999; pin = 0 } |];
    };
  let bad = { d with Netlist.Design.nets } in
  check_bool "Check.design rejects dangling pin" true (Check.design bad <> []);
  check_bool "Design.validate rejects dangling pin" true
    (Netlist.Design.validate bad <> [])

(* --- the sanitizer stays clean after a portfolio + window-cache flow:
   the portfolio solver and the memo-cache replay path both feed the same
   oracles (placement legality, window independence, objective recount,
   route, MILP re-verification) as the plain greedy flow --- *)

let test_portfolio_cache_flow_clean () =
  let p = Place.Placement.copy (closedm1 ()) in
  let params = params_of p in
  let config =
    { Vm1.Vm1_opt.default_config with
      Vm1.Vm1_opt.mode = `Portfolio;
      wcache = Vm1.Vm1_opt.Fresh_wcache }
  in
  ignore (Vm1.Vm1_opt.run ~config params p);
  let findings = Check.flow params p in
  check_int "six oracles ran" 6 (List.length findings);
  List.iter
    (fun (f : Check.finding) ->
      check_bool
        (Printf.sprintf "%s oracle clean after portfolio+cache" f.oracle)
        true (f.problems = []))
    findings

(* --- objective recount disagrees with tampered counts --- *)

let test_objective_tamper () =
  let p = closedm1 () in
  let params = params_of p in
  let c = Vm1.Objective.counts params p in
  check_int "honest counts verify" 0
    (List.length (Check.objective_counts params p c));
  let tampered = { c with Vm1.Objective.alignments = c.alignments + 1 } in
  check_bool "inflated alignment count caught" true
    (Check.objective_counts params p tampered <> [])

(* --- routing result tampering --- *)

let find_free_wire_edge (g : Route.Grid.t) =
  let rec go n =
    if n >= Route.Grid.node_count g then
      Alcotest.fail "no free wire edge in grid"
    else if
      Route.Grid.has_wire_edge g n
      && Route.Grid.wire_usage g n = 0
      && Route.Grid.wire_owner g n = Route.Grid.free
    then n
    else go (n + 1)
  in
  go 0

let test_route_tamper () =
  let p = closedm1 () in
  let r = Route.Router.route p in
  check_int "honest result verifies" 0 (List.length (Check.route_result r));
  let n = find_free_wire_edge r.grid in
  Route.Grid.commit_wire r.grid n;
  check_bool "phantom committed edge caught" true (Check.route_result r <> []);
  Route.Grid.uncommit_wire r.grid n;
  check_int "restored result verifies" 0 (List.length (Check.route_result r));
  r.failed_subnets <- r.failed_subnets + 1;
  check_bool "failed-subnet miscount caught" true (Check.route_result r <> []);
  r.failed_subnets <- r.failed_subnets - 1

(* --- MILP assignment re-verification --- *)

let test_model_check () =
  let open Milp.Model in
  let m = create () in
  let x = continuous m ~ub:1.0 "x" in
  let _b = binary m "b" in
  add_le m (v x) (const 0.5);
  check_int "feasible assignment verifies" 0
    (List.length (check m [| 0.25; 1.0 |]));
  let problems = check m [| 2.0; 0.5 |] in
  (* x above its upper bound and over the constraint, b fractional *)
  check_bool "infeasible assignment caught" true (List.length problems >= 3);
  check_bool "wrong-arity assignment caught" true (check m [| 0.0 |] <> [])

let () =
  let flow_cases =
    List.map
      (fun ((arch, _) as ap) ->
        Alcotest.test_case (Pdk.Cell_arch.to_string arch) `Quick
          (test_flow_passes ap))
      (Lazy.force prepared)
  in
  Alcotest.run "check"
    [
      ( "flow",
        flow_cases
        @ [
            Alcotest.test_case "portfolio+cache clean" `Quick
              test_portfolio_cache_flow_clean;
          ] );
      ( "negative-def",
        [
          Alcotest.test_case "corrupted dump rejected" `Quick
            test_corrupted_def;
        ] );
      ( "negative-placement",
        [
          Alcotest.test_case "overlap rejected" `Quick test_overlap_rejected;
          Alcotest.test_case "off-grid rejected" `Quick test_off_grid_rejected;
          Alcotest.test_case "outside die rejected" `Quick
            test_outside_die_rejected;
        ] );
      ( "negative-design",
        [
          Alcotest.test_case "dangling pin rejected" `Quick
            test_dangling_pin_rejected;
        ] );
      ( "negative-objective",
        [ Alcotest.test_case "tampered counts caught" `Quick
            test_objective_tamper ] );
      ( "negative-route",
        [ Alcotest.test_case "tampered result caught" `Quick
            test_route_tamper ] );
      ( "milp",
        [ Alcotest.test_case "assignment re-verified" `Quick
            test_model_check ] );
    ]
