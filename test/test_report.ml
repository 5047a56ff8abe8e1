(* Tests for the reporting layer: table rendering, flow helpers, the
   experiment matrix. *)

let checks = Alcotest.(check string)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

let test_render_alignment () =
  let out =
    Report.Table.render ~header:[ "a"; "long" ] ~rows:[ [ "xx"; "y" ] ]
  in
  let lines = String.split_on_char '\n' out in
  (match lines with
   | h :: sep :: row :: _ ->
     checkb "header and row same width" true
       (String.length h = String.length row);
     checkb "separator dashes" true (String.contains sep '-')
   | _ -> Alcotest.fail "expected three lines");
  checkb "contains all cells" true
    (List.for_all
       (fun cell ->
         (* each cell appears in the output *)
         let re = Str.regexp_string cell in
         (try ignore (Str.search_forward re out 0); true with Not_found -> false))
       [ "a"; "long"; "xx"; "y" ])

let test_number_formats () =
  checks "fi" "42" (Report.Table.fi 42);
  checks "f1" "3.1" (Report.Table.f1 3.14159);
  checks "f3" "3.142" (Report.Table.f3 3.14159);
  checks "pct up" "(+10.0)" (Report.Table.pct 10.0 11.0);
  checks "pct down" "(-50.0)" (Report.Table.pct 10.0 5.0);
  checks "pct zero base" "(0.0)" (Report.Table.pct 0.0 5.0)

let test_delta_pct () =
  checkf "delta" 10.0 (Report.Flow.delta_pct 100.0 110.0);
  checkf "zero base" 0.0 (Report.Flow.delta_pct 0.0 5.0)

let test_prepare_legal () =
  let p = Report.Flow.prepare ~scale:32 Netlist.Designs.M0 Pdk.Cell_arch.Closed_m1 in
  Alcotest.(check (list string)) "legal" [] (Place.Legalize.check p)

let test_evaluate_consistent_clock () =
  let p = Report.Flow.prepare ~scale:32 Netlist.Designs.M0 Pdk.Cell_arch.Closed_m1 in
  let params = Vm1.Params.default p.Place.Placement.tech in
  let e1, clock = Report.Flow.evaluate params p in
  let e2, clock2 = Report.Flow.evaluate ~clock_ps:clock params p in
  checkf "same clock when passed" clock clock2;
  checkb "same dm1 on re-evaluation" true (e1.Report.Flow.dm1 = e2.Report.Flow.dm1)

(* --- svg --- *)

let test_svg_placement_wellformed () =
  let p = Report.Flow.prepare ~scale:32 Netlist.Designs.M0 Pdk.Cell_arch.Closed_m1 in
  let svg = Report.Svg.placement p in
  checkb "opens svg" true (String.length svg > 100);
  checkb "has xmlns" true
    (try ignore (Str.search_forward (Str.regexp_string "xmlns") svg 0); true
     with Not_found -> false);
  checkb "closes svg" true
    (try ignore (Str.search_forward (Str.regexp_string "</svg>") svg 0); true
     with Not_found -> false);
  (* one rect per instance at least (plus die + pins) *)
  let rects = ref 0 in
  let idx = ref 0 in
  (try
     while true do
       idx := Str.search_forward (Str.regexp_string "<rect") svg !idx + 1;
       incr rects
     done
   with Not_found -> ());
  checkb "a rect per instance" true
    (!rects > Place.Placement.num_instances p)

let test_svg_routed_and_congestion () =
  let p = Report.Flow.prepare ~scale:32 Netlist.Designs.M0 Pdk.Cell_arch.Closed_m1 in
  let r = Route.Router.route p in
  let routed = Report.Svg.routed r in
  checkb "routed has lines" true
    (try ignore (Str.search_forward (Str.regexp_string "<line") routed 0); true
     with Not_found -> false);
  let heat = Report.Svg.congestion r in
  checkb "congestion has tiles" true
    (try ignore (Str.search_forward (Str.regexp_string "rgb(255,") heat 0); true
     with Not_found -> false)

(* --- congestion map --- *)

let test_congestion_map () =
  let p = Report.Flow.prepare ~scale:32 Netlist.Designs.M0 Pdk.Cell_arch.Closed_m1 in
  let r = Route.Router.route p in
  let map = Route.Congestion.of_result r in
  checkb "ratios in [0, 3]" true
    (Array.for_all (fun x -> x >= 0.0 && x < 3.0) map.Route.Congestion.ratio);
  (* the map reflects usage: the total must be positive after routing *)
  checkb "some usage" true
    (Array.exists (fun x -> x > 0.0) map.Route.Congestion.ratio);
  (* clamping: out-of-die queries do not raise *)
  checkb "clamped" true (Route.Congestion.at map ~x:(-100) ~y:(max_int / 2) >= 0.0)

let test_congestion_cost_plumbing () =
  let p = Report.Flow.prepare ~scale:32 Netlist.Designs.M0 Pdk.Cell_arch.Closed_m1 in
  let cost =
    Report.Flow.congestion_cost ~weight:10.0 ~threshold:0.0
      (Route.Router.route p)
  in
  (* threshold 0 taxes every used tile, so some candidate cost is positive *)
  let found = ref false in
  for site = 0 to p.Place.Placement.sites_per_row - 1 do
    for row = 0 to p.Place.Placement.num_rows - 1 do
      if cost ~site ~row > 0.0 then found := true
    done
  done;
  checkb "cost map active" true !found;
  (* an optimisation run with the cost installed stays legal *)
  let params = Vm1.Params.default p.Place.Placement.tech in
  let config =
    { Vm1.Vm1_opt.default_config with Vm1.Vm1_opt.candidate_cost = Some cost }
  in
  ignore (Vm1.Vm1_opt.run ~config params p);
  Alcotest.(check (list string)) "legal" [] (Place.Legalize.check p)

let contains s sub =
  try
    ignore (Str.search_forward (Str.regexp_string sub) s 0);
    true
  with Not_found -> false

(* the params axis: each set crosses the grid, suffixes the cell id,
   resolves omitted fields to the architecture's defaults, and reaches
   the optimiser (alpha 0 seeks no alignments) and the router (3 layers;
   no dM1 without use_dm1) *)
let test_matrix_params () =
  let m =
    match
      Io.Manifest.parse
        {|{ "schema": "vm1dp-bench-manifest/1", "name": "p",
            "designs": [ { "id": "m0", "generate": "m0" } ],
            "archs": ["closedm1"], "utils": [0.75], "scales": [64],
            "params": [ { "id": "paper" },
                        { "id": "a0", "alpha": 0, "sequence": [[10, 2, 0]] },
                        { "id": "l3", "router_layers": 3 },
                        { "id": "nodm1", "use_dm1": false } ] }|}
    with
    | Ok m -> m
    | Error msg -> Alcotest.fail msg
  in
  let r =
    match Report.Matrix.run m with
    | Ok r -> r
    | Error msg -> Alcotest.fail msg
  in
  let cell id =
    match
      List.find_opt
        (fun (c : Report.Matrix.cell) ->
          c.Report.Matrix.cell_id = "m0/closedm1/u0.75/s64/" ^ id)
        r.Report.Matrix.cells
    with
    | Some c -> c
    | None -> Alcotest.failf "no cell for params %s" id
  in
  let resolved id =
    match (cell id).Report.Matrix.params with
    | Some q -> q
    | None -> Alcotest.failf "%s: no params" id
  in
  Alcotest.(check int) "one cell per params set" 4 (List.length r.Report.Matrix.cells);
  let paper = resolved "paper" and a0 = resolved "a0" and l3 = resolved "l3" in
  checkf "default alpha" 1200.0 paper.Report.Matrix.alpha;
  checkb "default sequence" true
    (paper.Report.Matrix.sequence = Vm1.Params.default_sequence);
  Alcotest.(check int) "default layers" 6 paper.Report.Matrix.router_layers;
  checkf "alpha 0" 0.0 a0.Report.Matrix.alpha;
  checkb "given sequence" true
    (a0.Report.Matrix.sequence = [ { Vm1.Params.bw_um = 10.0; lx = 2; ly = 0 } ]);
  Alcotest.(check int) "given layers" 3 l3.Report.Matrix.router_layers;
  checkb "default switches" true
    (paper.Report.Matrix.use_dm1 && paper.Report.Matrix.row_dp
    && not paper.Report.Matrix.congestion_term);
  checkb "use_dm1 off" false (resolved "nodm1").Report.Matrix.use_dm1;
  let dm1 id = (cell id).Report.Matrix.final.Report.Flow.dm1 in
  checkb "alpha 0 finds fewer dM1" true (dm1 "a0" < dm1 "paper");
  checkb "3 layers route differently" true
    ((cell "l3").Report.Matrix.init <> (cell "paper").Report.Matrix.init);
  Alcotest.(check (pair int int)) "no dM1 before or after" (0, 0)
    ( (cell "nodm1").Report.Matrix.init.Report.Flow.dm1,
      dm1 "nodm1" );
  checkb "runtime measured" true
    (List.for_all
       (fun (c : Report.Matrix.cell) -> c.Report.Matrix.opt_runtime_s >= 0.0)
       r.Report.Matrix.cells);
  checkb "runtime rendered" true (contains (Report.Matrix.render r) "opt s");
  let json = Obs.Json.to_string (Report.Matrix.to_json r) in
  checkb "params in the report" true (contains json {|"params":{"id":"l3"|});
  checkb "a switch off its default is listed" true
    (contains json {|"router_layers":6,"use_dm1":false}|});
  checkb "a switch at its default is not" false (contains json "row_dp");
  checkb "runtime not in the report" false (contains json "runtime")

(* One generated point, four params sets. The two alpha cells and the
   congestion-term cell share one master (one placement, one baseline
   route); the 3-layer cell gets its own. Sharing changes no number:
   each cell equals the same params set swept on its own, and the
   report is the same at every pool size. *)
let test_matrix_reuse () =
  let manifest sets =
    match
      Io.Manifest.parse
        (Printf.sprintf
           {|{ "schema": "vm1dp-bench-manifest/1", "name": "reuse",
               "designs": [ { "id": "m0", "generate": "m0" } ],
               "archs": ["closedm1"], "utils": [0.75], "scales": [64],
               "params": [ %s ] }|}
           (String.concat ", " sets))
    with
    | Ok m -> m
    | Error msg -> Alcotest.fail msg
  in
  let sets =
    [ {|{ "id": "a0", "alpha": 0 }|}; {|{ "id": "a800", "alpha": 800 }|};
      {|{ "id": "l3", "router_layers": 3 }|};
      {|{ "id": "cong", "congestion_term": true }|} ]
  in
  let run m =
    match Report.Matrix.run m with
    | Ok r -> r
    | Error msg -> Alcotest.fail msg
  in
  let json r = Obs.Json.to_string (Report.Matrix.to_json r) in
  let jobs = Exec.jobs () in
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ();
      Exec.set_jobs jobs)
    (fun () ->
      Exec.set_jobs 1;
      Obs.reset ();
      Obs.set_enabled true;
      let r = run (manifest sets) in
      Obs.set_enabled false;
      let calls name =
        match
          List.assoc_opt name (Obs.aggregate_spans (Obs.snapshot ()).Obs.spans)
        with
        | Some a -> a.Obs.calls
        | None -> 0
      in
      Alcotest.(check int) "one placement per master" 2 (calls "place.global");
      Alcotest.(check int) "a baseline per master, a re-route per cell" 6
        (calls "route");
      List.iter2
        (fun set (c : Report.Matrix.cell) ->
          match (run (manifest [ set ])).Report.Matrix.cells with
          | [ alone ] ->
            checkb (c.Report.Matrix.cell_id ^ " as its own sweep") true
              (alone.Report.Matrix.cell_id = c.Report.Matrix.cell_id
              && alone.Report.Matrix.params = c.Report.Matrix.params
              && alone.Report.Matrix.init = c.Report.Matrix.init
              && alone.Report.Matrix.final = c.Report.Matrix.final)
          | _ -> Alcotest.fail "one cell expected")
        sets r.Report.Matrix.cells;
      List.iter
        (fun j ->
          Exec.set_jobs j;
          checks (Printf.sprintf "jobs %d" j) (json r) (json (run (manifest sets))))
        [ 1; 2; 4 ])

let test_table2_render () =
  let p = Report.Flow.prepare ~scale:64 Netlist.Designs.M0 Pdk.Cell_arch.Closed_m1 in
  let params = Vm1.Params.default p.Place.Placement.tech in
  let e, _ = Report.Flow.evaluate params p in
  let c =
    {
      Report.Flow.design_name = "m0";
      instances = Place.Placement.num_instances p;
      alpha = params.Vm1.Params.alpha;
      init = e;
      final = e;
      opt_runtime_s = 0.0;
    }
  in
  match String.split_on_char '\n' (Report.Expt.Table2.render [ c ]) with
  | header :: _ :: row :: _ ->
    checkb "header" true (contains header "dM1:i" && contains header "rt(s)");
    checkb "design row" true (contains row "m0")
  | _ -> Alcotest.fail "expected header, separator and a row"

let () =
  Alcotest.run "report"
    [
      ( "table",
        [
          Alcotest.test_case "render alignment" `Quick test_render_alignment;
          Alcotest.test_case "number formats" `Quick test_number_formats;
        ] );
      ( "flow",
        [
          Alcotest.test_case "delta pct" `Quick test_delta_pct;
          Alcotest.test_case "prepare legal" `Quick test_prepare_legal;
          Alcotest.test_case "evaluate clock" `Quick test_evaluate_consistent_clock;
          Alcotest.test_case "table2 render" `Quick test_table2_render;
        ] );
      ( "matrix",
        [ Alcotest.test_case "params axis" `Quick test_matrix_params;
          Alcotest.test_case "cells share a master" `Quick test_matrix_reuse ] );
      ( "svg",
        [
          Alcotest.test_case "placement svg" `Quick test_svg_placement_wellformed;
          Alcotest.test_case "routed + congestion svg" `Quick test_svg_routed_and_congestion;
        ] );
      ( "congestion",
        [
          Alcotest.test_case "map" `Quick test_congestion_map;
          Alcotest.test_case "cost plumbing" `Quick test_congestion_cost_plumbing;
        ] );
    ]
