(* lib/trace: parser, profile, critical path, diff, exporters.

   Golden files (golden_report.json, golden_flame.txt,
   golden_speedscope.json) are the committed outputs of vm1trace on
   mini_trace.json — a hand-written miniature trace with parallel roots,
   QoR attrs and a heatmap-carrying route span. Regenerate after an
   intentional format change with:
     vm1trace report --json / flame / flame --format speedscope *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let mini () =
  match Trace.Model.load "mini_trace.json" with
  | Ok t -> t
  | Error m -> Alcotest.failf "mini_trace.json: %s" m

(* --- parser --------------------------------------------------------- *)

let test_parse () =
  let t = mini () in
  Alcotest.(check int) "roots" 3 (List.length t.spans);
  Alcotest.(check int) "wall" 1500 (Trace.Model.wall_ns t);
  Alcotest.(check (list (pair string int)))
    "counters"
    [ ("route.failed_subnets", 1); ("scp.moves", 5); ("scp.windows_solved", 3) ]
    t.counters;
  let flow = List.hd t.spans in
  Alcotest.(check (option string))
    "str attr" (Some "mini")
    (Trace.Model.attr_str flow "design")

let test_parse_errors () =
  let err s =
    match Trace.Model.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %s" s
  in
  err "{";
  err "{\"schema\":\"bogus\"}";
  err "{\"schema\":\"vm1dp-trace/1\"}";
  err
    "{\"schema\":\"vm1dp-trace/1\",\"spans\":[{\"name\":\"x\"}],\
     \"counters\":{},\"gauges\":{},\"histograms\":{}}"

let test_prune () =
  let t = mini () in
  let p = Trace.Model.prune ~prefixes:[ "opt" ] t in
  (* opt disappears; its two distopt.window children are spliced into
     flow, keeping flow's own child count - 1 + 2 *)
  let flow = List.hd p.spans in
  Alcotest.(check int) "spliced" 3 (List.length flow.children);
  let names = List.map (fun (s : Trace.Model.span) -> s.name) flow.children in
  Alcotest.(check (list string)) "order"
    [ "prepare"; "distopt.window"; "distopt.window" ]
    names

(* --- profile -------------------------------------------------------- *)

let test_profile () =
  let rows = Trace.Profile.rows (mini ()) in
  let row name =
    match
      List.find_opt (fun (r : Trace.Profile.row) -> String.equal r.name name) rows
    with
    | Some r -> r
    | None -> Alcotest.failf "no row %s" name
  in
  let w = row "distopt.window" in
  Alcotest.(check int) "calls" 3 w.calls;
  Alcotest.(check int) "total" 950 w.total_ns;
  Alcotest.(check int) "self" 950 w.self_ns;
  Alcotest.(check int) "p50" 300 w.p50_ns;
  Alcotest.(check int) "p90" 400 w.p90_ns;
  let f = row "flow" in
  Alcotest.(check int) "flow self" 100 f.self_ns;
  (* sorted by total desc *)
  Alcotest.(check string) "hottest first" "flow"
    (List.hd rows).Trace.Profile.name

(* --- goldens -------------------------------------------------------- *)

let test_golden_report () =
  Alcotest.(check string) "report json"
    (read_file "golden_report.json")
    (Obs.Json.to_string (Trace.Profile.to_json (mini ())) ^ "\n")

let test_golden_flame () =
  Alcotest.(check string) "folded"
    (read_file "golden_flame.txt")
    (Trace.Export.folded (mini ()))

let test_golden_speedscope () =
  Alcotest.(check string) "speedscope"
    (read_file "golden_speedscope.json")
    (Obs.Json.to_string (Trace.Export.speedscope (mini ())) ^ "\n")

(* --- critical path -------------------------------------------------- *)

let test_critical_path_mini () =
  let steps = Trace.Critical_path.compute (mini ()) in
  (* the overlapped worker-domain root must not appear: it is fully
     hidden under flow; the 100ns root-level gap is unattributed *)
  Alcotest.(check int) "total" 1400 (Trace.Critical_path.total_ns steps);
  let depth0 =
    List.filter_map
      (fun (s : Trace.Critical_path.step) ->
        if s.depth = 0 then Some s.name else None)
      steps
  in
  Alcotest.(check (list string)) "root chain" [ "flow"; "route" ] depth0

(* Random span forests: children nest strictly inside their parent and
   siblings may overlap (as worker-domain spans do). *)
let gen_forest =
  let open QCheck in
  let rec gen_span depth lo hi =
    let open Gen in
    int_range lo (max lo (hi - 1)) >>= fun start ->
    int_range 1 (max 1 (hi - start)) >>= fun dur ->
    (if depth >= 3 then return []
     else
       int_range 0 2 >>= fun n ->
       list_size (return n) (gen_span (depth + 1) start (start + dur)))
    >>= fun children ->
    return
      { Trace.Model.name = "s"; start_ns = start; dur_ns = dur; attrs = [];
        children }
  in
  let gen =
    let open Gen in
    int_range 1 4 >>= fun n ->
    list_size (return n) (gen_span 0 0 1000) >>= fun spans ->
    return
      { Trace.Model.spans; counters = []; gauges = []; histograms = [] }
  in
  make gen

let test_critical_path_bounds =
  QCheck.Test.make ~count:500 ~name:"critical path bounded by wall clock"
    gen_forest (fun t ->
      let total = Trace.Critical_path.total_ns (Trace.Critical_path.compute t) in
      total >= 0 && total <= Trace.Model.wall_ns t)

let test_critical_path_vs_children =
  QCheck.Test.make ~count:500
    ~name:"single root: path = root wall >= any child subpath" gen_forest
    (fun t ->
      match t.Trace.Model.spans with
      | [] -> true
      | root :: _ ->
        let single = { t with Trace.Model.spans = [ root ] } in
        let total =
          Trace.Critical_path.total_ns (Trace.Critical_path.compute single)
        in
        let sub =
          Trace.Critical_path.total_ns
            (Trace.Critical_path.compute
               { t with Trace.Model.spans = root.Trace.Model.children })
        in
        total = root.Trace.Model.dur_ns && total >= sub)

(* --- diff ----------------------------------------------------------- *)

let span ?(children = []) name start_ns dur_ns =
  { Trace.Model.name; start_ns; dur_ns; attrs = []; children }

let trace ?(counters = []) ?(gauges = []) spans =
  { Trace.Model.spans; counters; gauges; histograms = [] }

let test_diff_self () =
  let t = mini () in
  let v = Trace.Diff.run Trace.Diff.default ~baseline:t ~current:t in
  Alcotest.(check bool) "self pass" true v.pass;
  Alcotest.(check int) "no issues" 0 (List.length v.issues)

let test_diff_boundary () =
  (* limit = 1000 * (1 + 0.5) + 100 = 1600.0: exactly 1600 passes, 1601
     fails — the band is boundary-exact *)
  let config =
    { Trace.Diff.default with time_rel = 0.5; time_abs_ns = 100 }
  in
  let base = trace [ span "a" 0 1000 ] in
  let at d =
    (Trace.Diff.run config ~baseline:base ~current:(trace [ span "a" 0 d ]))
      .pass
  in
  Alcotest.(check bool) "at limit" true (at 1600);
  Alcotest.(check bool) "one past limit" false (at 1601);
  Alcotest.(check bool) "faster is fine" true (at 10)

let test_diff_structure () =
  let base = trace [ span "a" 0 100 ~children:[ span "b" 0 50 ] ] in
  let fail t =
    not (Trace.Diff.run Trace.Diff.default ~baseline:base ~current:t).pass
  in
  Alcotest.(check bool) "missing child" true
    (fail (trace [ span "a" 0 100 ]));
  Alcotest.(check bool) "new span" true
    (fail
       (trace [ span "a" 0 100 ~children:[ span "b" 0 50; span "c" 60 10 ] ]));
  (* b moving from child of a to root is an edge change even though the
     name multiset is unchanged *)
  Alcotest.(check bool) "edge change" true
    (fail (trace [ span "a" 0 100; span "b" 0 50 ]))

let test_diff_counters_and_ignore () =
  let base =
    trace ~counters:[ ("exec.tasks", 10); ("scp.moves", 5) ] [ span "a" 0 100 ]
  in
  let cur =
    trace ~counters:[ ("exec.tasks", 99); ("scp.moves", 5) ] [ span "a" 0 100 ]
  in
  let strict = Trace.Diff.run Trace.Diff.default ~baseline:base ~current:cur in
  Alcotest.(check bool) "counter drift fails" false strict.pass;
  let ignoring =
    Trace.Diff.run
      { Trace.Diff.default with ignore_prefixes = [ "exec." ] }
      ~baseline:base ~current:cur
  in
  Alcotest.(check bool) "ignored prefix passes" true ignoring.pass

let test_diff_gauge_band () =
  let base = trace ~gauges:[ ("g", 100.0) ] [ span "a" 0 100 ] in
  let at v =
    (Trace.Diff.run
       { Trace.Diff.default with gauge_rel = 0.1; gauge_abs = 0.0 }
       ~baseline:base
       ~current:(trace ~gauges:[ ("g", v) ] [ span "a" 0 100 ]))
      .pass
  in
  Alcotest.(check bool) "within band" true (at 110.0);
  Alcotest.(check bool) "outside band" false (at 110.1);
  Alcotest.(check bool) "below band" false (at 88.0)

(* --- attribute ------------------------------------------------------ *)

let test_attribute () =
  let a = Trace.Attribute.compute (mini ()) in
  Alcotest.(check int) "windows" 2 (List.length a.windows);
  let w0 = List.hd a.windows in
  Alcotest.(check int) "solves folds worker root" 2 w0.solves;
  Alcotest.(check int) "moves" 4 w0.moves;
  Alcotest.(check int) "dHPWL" (-104) w0.d_hpwl_dbu;
  Alcotest.(check int) "dAlign" 2 w0.d_align;
  Alcotest.(check int) "overflow join" 4 w0.overflow;
  (match a.heatmap with
  | None -> Alcotest.fail "no heatmap"
  | Some h ->
    Alcotest.(check int) "tiles" 4 (Array.length h.counts);
    let ascii = Trace.Attribute.render_heatmap h in
    Alcotest.(check bool) "renders rows" true
      (String.length ascii > 0 && String.contains ascii '|'));
  Alcotest.(check int) "net rows" 2 (List.length a.nets);
  let n7 =
    List.find (fun (n : Trace.Attribute.net_row) -> n.net_id = 7) a.nets
  in
  Alcotest.(check int) "failed subnets" 1 n7.failed_subnets

(* --- schemas -------------------------------------------------------- *)

let test_schemas_roundtrip () =
  List.iter
    (fun id ->
      let s = Obs.Schemas.to_string id in
      match Obs.Schemas.of_string s with
      | Some id' ->
        Alcotest.(check string) "roundtrip" s (Obs.Schemas.to_string id')
      | None -> Alcotest.failf "%s does not round-trip" s)
    Obs.Schemas.all;
  Alcotest.(check (option string)) "unknown rejected" None
    (Option.map Obs.Schemas.to_string (Obs.Schemas.of_string "vm1dp-nope/9"));
  (* every emitter's schema field parses back through the registry *)
  let tagged j =
    match Obs.Json.member "schema" j with
    | Some (Obs.Json.Str s) -> Obs.Schemas.of_string s <> None
    | _ -> false
  in
  Alcotest.(check bool) "trace report emitter" true
    (tagged (Trace.Profile.to_json (mini ())));
  let manifest =
    {
      Io.Manifest.m_name = "tagcheck";
      entries =
        [
          {
            Io.Manifest.e_id = "m0";
            source = Io.Manifest.Generate Netlist.Designs.M0;
          };
        ];
      archs = [ Pdk.Cell_arch.Closed_m1 ];
      utils = [ 0.75 ];
      scales = [ 64 ];
      params = [];
    }
  in
  Alcotest.(check bool) "bench-manifest emitter" true
    (tagged (Io.Manifest.to_json manifest));
  let matrix =
    {
      Report.Matrix.manifest_name = "tagcheck";
      manifest_digest = "0";
      cells = [];
    }
  in
  Alcotest.(check bool) "expt-matrix emitter" true
    (tagged (Report.Matrix.to_json matrix))

let () =
  Alcotest.run "trace"
    [
      ( "model",
        [
          Alcotest.test_case "parse" `Quick test_parse;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "prune splices" `Quick test_prune;
        ] );
      ( "profile",
        [
          Alcotest.test_case "aggregate" `Quick test_profile;
          Alcotest.test_case "golden report" `Quick test_golden_report;
        ] );
      ( "export",
        [
          Alcotest.test_case "golden folded" `Quick test_golden_flame;
          Alcotest.test_case "golden speedscope" `Quick test_golden_speedscope;
        ] );
      ( "critical-path",
        [
          Alcotest.test_case "mini" `Quick test_critical_path_mini;
          QCheck_alcotest.to_alcotest test_critical_path_bounds;
          QCheck_alcotest.to_alcotest test_critical_path_vs_children;
        ] );
      ( "diff",
        [
          Alcotest.test_case "self" `Quick test_diff_self;
          Alcotest.test_case "boundary flip" `Quick test_diff_boundary;
          Alcotest.test_case "structure" `Quick test_diff_structure;
          Alcotest.test_case "counters/ignore" `Quick
            test_diff_counters_and_ignore;
          Alcotest.test_case "gauge band" `Quick test_diff_gauge_band;
        ] );
      ("attribute", [ Alcotest.test_case "mini" `Quick test_attribute ]);
      ("schemas", [ Alcotest.test_case "roundtrip" `Quick test_schemas_roundtrip ]);
    ]
