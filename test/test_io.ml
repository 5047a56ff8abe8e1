(* The interchange subsystem: DEF/LEF codec round-trips (including the
   emit -> parse -> emit fixed point on the committed examples), exact
   parse-error positions, benchmark-manifest JSON, and the end-to-end
   guarantee the codec exists for: a flow result emitted as DEF,
   re-ingested and re-evaluated, produces byte-identical QoR metrics. *)

let check = Alcotest.(check int)
let checks = Alcotest.(check string)
let checkb = Alcotest.(check bool)

let closed_lib =
  lazy (Pdk.Libgen.generate (Pdk.Tech.default Pdk.Cell_arch.Closed_m1))

let ok_or_fail what = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s: %s" what msg

let ok_or_fail_lex what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Io.Lex.error_to_string e)

(* --- DEF: generated designs ------------------------------------------ *)

let placed ?(scale = 64) ?(utilization = 0.7) arch =
  let d = Netlist.Designs.make ~scale Netlist.Designs.M0 arch in
  let p = Place.Placement.create d ~utilization in
  Place.Global.place p;
  (d, p)

let test_def_emit_parse_emit_fixed_point () =
  List.iter
    (fun arch ->
      let d, p = placed arch in
      let text = Io.Def.write d (Place.Placement.to_def p) in
      let doc = ok_or_fail_lex "parse" (Io.Def.parse text) in
      checks
        (Printf.sprintf "fixed point (%s)" (Pdk.Cell_arch.to_string arch))
        text (Io.Def.emit doc))
    [ Pdk.Cell_arch.Closed_m1; Pdk.Cell_arch.Open_m1;
      Pdk.Cell_arch.Conventional12 ]

let test_def_to_design_round_trip () =
  let d, p = placed Pdk.Cell_arch.Closed_m1 in
  let def = Place.Placement.to_def p in
  let text = Io.Def.write d def in
  let d2, def2 =
    ok_or_fail "read" (Io.Def.read d.Netlist.Design.lib text)
  in
  Alcotest.(check (list string)) "valid" [] (Netlist.Design.validate d2);
  check "instances" (Netlist.Design.num_instances d)
    (Netlist.Design.num_instances d2);
  check "nets" (Netlist.Design.num_nets d) (Netlist.Design.num_nets d2);
  checkb "die" true (Geom.Rect.equal def.Netlist.Def_io.die def2.Netlist.Def_io.die);
  Alcotest.(check (array int)) "xs" def.Netlist.Def_io.xs def2.Netlist.Def_io.xs;
  Alcotest.(check (array int)) "ys" def.Netlist.Def_io.ys def2.Netlist.Def_io.ys;
  Array.iteri
    (fun i o ->
      checkb "orient" true (Geom.Orient.equal o def2.Netlist.Def_io.orients.(i)))
    def.Netlist.Def_io.orients

let test_def_rows_and_tracks () =
  let d, p = placed Pdk.Cell_arch.Closed_m1 in
  let text = Io.Def.write d (Place.Placement.to_def p) in
  let doc = ok_or_fail_lex "parse" (Io.Def.parse text) in
  let tech = d.Netlist.Design.lib.Pdk.Libgen.tech in
  let die = doc.Io.Def.die in
  check "row count"
    (Geom.Rect.height die / tech.Pdk.Tech.row_height)
    (List.length doc.Io.Def.rows);
  List.iter
    (fun (r : Io.Def.row) ->
      check "row step = site width" tech.Pdk.Tech.site_width r.Io.Def.r_step)
    doc.Io.Def.rows;
  check "three track grids" 3 (List.length doc.Io.Def.tracks);
  let m1 =
    List.find (fun t -> String.equal t.Io.Def.t_layer "M1") doc.Io.Def.tracks
  in
  checkb "M1 tracks vertical" true (m1.Io.Def.t_axis = Io.Def.X);
  check "M1 pitch = site width" tech.Pdk.Tech.site_width m1.Io.Def.t_step

(* the QCheck sweep: the fixed point holds for arbitrary arch/scale/util *)
let prop_def_fixed_point =
  QCheck2.Test.make ~name:"emit->parse->emit fixed point" ~count:12
    QCheck2.Gen.(
      triple (int_range 0 2) (int_range 48 128) (int_range 60 85))
    (fun (archi, scale, util) ->
      let arch =
        match archi with
        | 0 -> Pdk.Cell_arch.Closed_m1
        | 1 -> Pdk.Cell_arch.Open_m1
        | _ -> Pdk.Cell_arch.Conventional12
      in
      let d, p = placed ~scale ~utilization:(float_of_int util /. 100.) arch in
      let text = Io.Def.write d (Place.Placement.to_def p) in
      match Io.Def.parse text with
      | Error _ -> false
      | Ok doc -> String.equal text (Io.Def.emit doc))

(* --- DEF: the committed examples ------------------------------------- *)

(* paths relative to test/ (the runtest cwd); fall back to the source
   tree layout so [dune exec test/test_io.exe] from the root also works *)
let committed_defs =
  List.map
    (fun p -> if Sys.file_exists p then p else Filename.concat "test" p)
    [ "a.init.def"; "a.opt.def"; "b.init.def"; "b.opt.def";
      "m0_smoke.def" ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_committed_defs_fixed_point () =
  List.iter
    (fun path ->
      let text = read_file path in
      let doc = ok_or_fail_lex path (Io.Def.parse text) in
      checks (Printf.sprintf "%s unchanged by round-trip" path) text
        (Io.Def.emit doc);
      let d, _ =
        ok_or_fail path (Io.Def.to_design (Lazy.force closed_lib) doc)
      in
      Alcotest.(check (list string))
        (Printf.sprintf "%s valid" path)
        [] (Netlist.Design.validate d))
    committed_defs

(* --- DEF: exact error positions -------------------------------------- *)

let def_err src =
  match Io.Def.parse src with
  | Ok _ -> Alcotest.failf "accepted malformed DEF:\n%s" src
  | Error e -> e

let check_err ~line ~col ~expected ~got (e : Io.Lex.error) =
  check "line" line e.Io.Lex.e_line;
  check "col" col e.Io.Lex.e_col;
  checks "expected" expected e.Io.Lex.expected;
  checks "got" got e.Io.Lex.got

let minimal_def =
  "VERSION 5.8 ;\n\
   DESIGN t ;\n\
   UNITS DISTANCE MICRONS 1000 ;\n\
   DIEAREA ( 0 0 ) ( 72 270 ) ;\n\
   COMPONENTS 1 ;\n\
   - u0 INV_X1 + PLACED ( 0 0 ) N ;\n\
   END COMPONENTS\n\
   NETS 0 ;\n\
   END NETS\n\
   END DESIGN\n"

let test_def_minimal_parses () =
  let doc = ok_or_fail_lex "minimal" (Io.Def.parse minimal_def) in
  let d, p = ok_or_fail "bind" (Io.Def.to_design (Lazy.force closed_lib) doc) in
  check "one instance" 1 (Netlist.Design.num_instances d);
  check "x" 0 p.Netlist.Def_io.xs.(0)

let test_def_garbage_position () =
  check_err ~line:1 ~col:1 ~expected:"\"VERSION\"" ~got:"\"WHAT\""
    (def_err "WHAT 3\n")

let test_def_truncated_position () =
  (* cut the minimal DEF right after "NETS 0 ;" (end of line 8) *)
  let cut =
    let idx = ref 0 and seen = ref 0 in
    String.iteri
      (fun i c ->
        if c = '\n' then begin
          incr seen;
          if !seen = 8 then idx := i
        end)
      minimal_def;
    String.sub minimal_def 0 !idx
  in
  check_err ~line:8 ~col:9 ~expected:"\"-\" or \"END NETS\"" ~got:"end of input"
    (def_err cut)

let test_def_bad_orient_position () =
  let src =
    Str.global_replace (Str.regexp_string "( 0 0 ) N ;") "( 0 0 ) Q ;"
      minimal_def
  in
  check_err ~line:6 ~col:30 ~expected:"an orientation (N|FN|S|FS)" ~got:"\"Q\""
    (def_err src)

let test_def_count_mismatch_position () =
  let src =
    Str.global_replace (Str.regexp_string "COMPONENTS 1 ;") "COMPONENTS 2 ;"
      minimal_def
  in
  check_err ~line:5 ~col:12 ~expected:"2 components entries (found 1)"
    ~got:"\"2\"" (def_err src)

let test_def_bad_dbu_rejected () =
  let src =
    Str.global_replace (Str.regexp_string "MICRONS 1000") "MICRONS 2000"
      minimal_def
  in
  let doc = ok_or_fail_lex "parse" (Io.Def.parse src) in
  match Io.Def.to_design (Lazy.force closed_lib) doc with
  | Ok _ -> Alcotest.fail "wrong DBU accepted"
  | Error msg -> checkb "mentions UNITS" true (String.length msg > 0)

let test_def_unknown_master () =
  let src =
    Str.global_replace (Str.regexp_string "INV_X1") "NAND9_X9" minimal_def
  in
  let doc = ok_or_fail_lex "parse" (Io.Def.parse src) in
  match Io.Def.to_design (Lazy.force closed_lib) doc with
  | Ok _ -> Alcotest.fail "unknown master accepted"
  | Error msg ->
    checks "message" "unknown master \"NAND9_X9\" (component \"u0\")" msg

let test_def_trailing_garbage () =
  check_err ~line:11 ~col:1 ~expected:"end of input" ~got:"\"third\""
    (def_err (minimal_def ^ "third section\n"))

(* --- LEF -------------------------------------------------------------- *)

let test_lef_emit_parse_emit_fixed_point () =
  List.iter
    (fun arch ->
      let lib = Pdk.Libgen.generate (Pdk.Tech.default arch) in
      let text = Io.Lef.emit lib in
      let lib2 = ok_or_fail_lex "parse" (Io.Lef.parse text) in
      checks
        (Printf.sprintf "fixed point (%s)" (Pdk.Cell_arch.to_string arch))
        text (Io.Lef.emit lib2))
    [ Pdk.Cell_arch.Closed_m1; Pdk.Cell_arch.Open_m1;
      Pdk.Cell_arch.Conventional12 ]

let test_lef_reconstructs_library () =
  let lib = Lazy.force closed_lib in
  let lib2 = ok_or_fail_lex "parse" (Io.Lef.parse (Io.Lef.emit lib)) in
  checkb "tech equal" true (lib.Pdk.Libgen.tech = lib2.Pdk.Libgen.tech);
  check "cell count" (List.length lib.cells) (List.length lib2.cells);
  List.iter2
    (fun (a : Pdk.Stdcell.t) (b : Pdk.Stdcell.t) ->
      checks "name" a.name b.name;
      checkb "identical master" true (a = b))
    lib.cells lib2.cells

let lef_err src =
  match Io.Lef.parse src with
  | Ok _ -> Alcotest.failf "accepted malformed LEF:\n%s" src
  | Error e -> e

let test_lef_bad_arch_position () =
  check_err ~line:2 ~col:6 ~expected:"an architecture (closedm1|openm1|conv12)"
    ~got:"\"pdk15\""
    (lef_err "VERSION 5.8 ;\nARCH pdk15 ;\n")

let test_lef_bad_kind_position () =
  let text = Io.Lef.emit (Lazy.force closed_lib) in
  let src = Str.replace_first (Str.regexp_string "KIND INV") "KIND LATCH" text in
  let e = lef_err src in
  checks "expected" "a cell kind (INV|BUF|NAND2|...)" e.Io.Lex.expected;
  checks "got" "\"LATCH\"" e.Io.Lex.got

let test_lef_truncated () =
  let text = Io.Lef.emit (Lazy.force closed_lib) in
  let e = lef_err (String.sub text 0 (String.length text / 2)) in
  checks "got" "end of input" e.Io.Lex.got

(* --- manifests -------------------------------------------------------- *)

let mini_manifest_json =
  {|{ "schema": "vm1dp-bench-manifest/1",
      "name": "mini",
      "designs": [
        { "id": "m0", "generate": "m0" },
        { "id": "smoke", "def": "m0_smoke.def", "arch": "closedm1" } ],
      "archs": ["closedm1", "openm1"],
      "utils": [0.7, 0.8],
      "scales": [48] }|}

let test_manifest_parse_and_roundtrip () =
  let m = ok_or_fail "parse" (Io.Manifest.parse mini_manifest_json) in
  checks "name" "mini" m.Io.Manifest.m_name;
  check "entries" 2 (List.length m.Io.Manifest.entries);
  check "archs" 2 (List.length m.Io.Manifest.archs);
  (match (List.nth m.Io.Manifest.entries 1).Io.Manifest.source with
  | Io.Manifest.External { def_path; lef_path; arch } ->
    checks "def path" "m0_smoke.def" def_path;
    checkb "no lef" true (lef_path = None);
    checkb "arch" true (arch = Pdk.Cell_arch.Closed_m1)
  | Io.Manifest.Generate _ -> Alcotest.fail "entry 1 should be external");
  let m2 =
    ok_or_fail "reparse" (Io.Manifest.of_json (Io.Manifest.to_json m))
  in
  checkb "round-trip" true (m = m2);
  checkb "no params" true (m.Io.Manifest.params = [])

let params_manifest_json =
  {|{ "schema": "vm1dp-bench-manifest/1",
      "name": "p",
      "designs": [ { "id": "aes", "generate": "aes" } ],
      "archs": ["closedm1"],
      "utils": [0.75],
      "scales": [16],
      "params": [
        { "id": "a800", "alpha": 800 },
        { "id": "seq2", "sequence": [[10, 3, 1], [10.5, 4, 0]] },
        { "id": "l3", "router_layers": 3, "alpha": 0.5 } ] }|}

let test_manifest_params_roundtrip () =
  let m = ok_or_fail "parse" (Io.Manifest.parse params_manifest_json) in
  (match m.Io.Manifest.params with
  | [ a; s; l ] ->
    checkb "alpha" true (a.Io.Manifest.alpha = Some 800.0);
    checkb "alpha only" true
      (a.Io.Manifest.sequence = None && a.Io.Manifest.router_layers = None);
    checkb "sequence" true
      (s.Io.Manifest.sequence
      = Some
          [
            { Io.Manifest.bw_um = 10.0; lx = 3; ly = 1 };
            { Io.Manifest.bw_um = 10.5; lx = 4; ly = 0 };
          ]);
    checkb "layers" true (l.Io.Manifest.router_layers = Some 3);
    checkb "layers alpha" true (l.Io.Manifest.alpha = Some 0.5)
  | _ -> Alcotest.fail "expected three params sets");
  let m2 =
    ok_or_fail "reparse" (Io.Manifest.of_json (Io.Manifest.to_json m))
  in
  checkb "round-trip" true (m = m2)

(* the three flow switches round-trip, and an unset switch stays None *)
let test_manifest_switches_roundtrip () =
  let m =
    ok_or_fail "parse"
      (Io.Manifest.parse
         {|{ "schema": "vm1dp-bench-manifest/1", "name": "s",
             "designs": [ { "id": "aes", "generate": "aes" } ],
             "archs": ["closedm1"], "utils": [0.75], "scales": [16],
             "params": [
               { "id": "all", "use_dm1": false, "row_dp": false,
                 "congestion_term": true },
               { "id": "none" } ] }|})
  in
  (match m.Io.Manifest.params with
  | [ a; n ] ->
    checkb "set" true
      (a.Io.Manifest.use_dm1 = Some false
      && a.Io.Manifest.row_dp = Some false
      && a.Io.Manifest.congestion_term = Some true);
    checkb "unset" true
      (n.Io.Manifest.use_dm1 = None && n.Io.Manifest.row_dp = None
      && n.Io.Manifest.congestion_term = None)
  | _ -> Alcotest.fail "expected two params sets");
  let m2 =
    ok_or_fail "reparse" (Io.Manifest.of_json (Io.Manifest.to_json m))
  in
  checkb "round-trip" true (m = m2)

let manifest_err json =
  match Io.Manifest.parse json with
  | Ok _ -> Alcotest.failf "accepted bad manifest: %s" json
  | Error msg -> msg

let test_manifest_errors () =
  checks "wrong schema"
    "manifest: schema \"nope/9\", expected \"vm1dp-bench-manifest/1\""
    (manifest_err
       {|{"schema":"nope/9","name":"x","designs":[],"archs":[],"utils":[],"scales":[]}|});
  checks "empty designs" "manifest: no designs"
    (manifest_err
       {|{"schema":"vm1dp-bench-manifest/1","name":"x","designs":[],"archs":[],"utils":[],"scales":[]}|});
  checks "duplicate id" "manifest: duplicate design id \"a\""
    (manifest_err
       {|{"schema":"vm1dp-bench-manifest/1","name":"x","designs":[{"id":"a","generate":"m0"},{"id":"a","generate":"aes"}],"archs":[],"utils":[],"scales":[]}|});
  checks "both sources" "design \"a\": has both \"generate\" and \"def\""
    (manifest_err
       {|{"schema":"vm1dp-bench-manifest/1","name":"x","designs":[{"id":"a","generate":"m0","def":"x.def"}],"archs":[],"utils":[],"scales":[]}|});
  checks "unknown generator" "design \"a\": unknown generator design \"zz\""
    (manifest_err
       {|{"schema":"vm1dp-bench-manifest/1","name":"x","designs":[{"id":"a","generate":"zz"}],"archs":[],"utils":[],"scales":[]}|});
  (* axes: [axes] is spliced after a valid designs list *)
  let axes_err axes =
    manifest_err
      ({|{"schema":"vm1dp-bench-manifest/1","name":"x","designs":[{"id":"a","generate":"m0"}],|}
      ^ axes ^ "}")
  in
  checks "no archs" "manifest: no archs"
    (axes_err {|"archs":[],"utils":[0.7],"scales":[16]|});
  checks "no utils" "manifest: no utils"
    (axes_err {|"archs":["closedm1"],"utils":[],"scales":[16]|});
  checks "no scales" "manifest: no scales"
    (axes_err {|"archs":["closedm1"],"utils":[0.7],"scales":[]|});
  checks "util above 1" "manifest: util 1.5 not in (0, 1]"
    (axes_err {|"archs":["closedm1"],"utils":[0.7,1.5],"scales":[16]|});
  checks "negative util" "manifest: util -0.2 not in (0, 1]"
    (axes_err {|"archs":["closedm1"],"utils":[-0.2],"scales":[16]|});
  checks "zero util" "manifest: util 0 not in (0, 1]"
    (axes_err {|"archs":["closedm1"],"utils":[0],"scales":[16]|});
  checks "zero scale" "manifest: scale 0 must be >= 1"
    (axes_err {|"archs":["closedm1"],"utils":[0.7],"scales":[0]|});
  let params_err params =
    axes_err ({|"archs":["closedm1"],"utils":[0.7],"scales":[16],"params":|} ^ params)
  in
  checks "no params" "manifest: no params" (params_err "[]");
  checks "negative alpha" "manifest: params \"p\": alpha must be >= 0"
    (params_err {|[{"id":"p","alpha":-1}]|});
  checks "too few layers" "manifest: params \"p\": router_layers must be in 2..6"
    (params_err {|[{"id":"p","router_layers":1}]|});
  checks "too many layers" "manifest: params \"p\": router_layers must be in 2..6"
    (params_err {|[{"id":"p","router_layers":7}]|});
  checks "empty sequence" "manifest: params \"p\": sequence must not be empty"
    (params_err {|[{"id":"p","sequence":[]}]|});
  checks "zero window"
    "manifest: params \"p\": sequence: step [0, 4, 1] needs bw_um > 0, lx >= 0, ly >= 0"
    (params_err {|[{"id":"p","sequence":[[20,4,1],[0,4,1]]}]|});
  checks "negative lx"
    "manifest: params \"p\": sequence: step [20, -1, 1] needs bw_um > 0, lx >= 0, ly >= 0"
    (params_err {|[{"id":"p","sequence":[[20,-1,1]]}]|});
  checks "negative ly"
    "manifest: params \"p\": sequence: step [20, 4, -1] needs bw_um > 0, lx >= 0, ly >= 0"
    (params_err {|[{"id":"p","sequence":[[20,4,-1]]}]|});
  checks "short step"
    "manifest: params \"p\": sequence: expected a [bw_um, lx, ly] step, got [20,4]"
    (params_err {|[{"id":"p","sequence":[[20,4]]}]|});
  checks "unknown key" "manifest: params \"p\": unknown key \"solver\""
    (params_err {|[{"id":"p","solver":"exact"}]|});
  checks "duplicate params id" "manifest: duplicate params id \"p\""
    (params_err {|[{"id":"p","alpha":0},{"id":"p","alpha":1}]|});
  checks "use_dm1 not a boolean"
    "manifest: params \"p\": use_dm1: expected a boolean, got 0"
    (params_err {|[{"id":"p","use_dm1":0}]|});
  checks "row_dp not a boolean"
    "manifest: params \"p\": row_dp: expected a boolean, got \"no\""
    (params_err {|[{"id":"p","row_dp":"no"}]|});
  checks "congestion_term not a boolean"
    "manifest: params \"p\": congestion_term: expected a boolean, got null"
    (params_err {|[{"id":"p","congestion_term":null}]|});
  checks "row_dp with an external design"
    "manifest: params \"q\": row_dp applies to generated designs only, \
     but design \"smoke\" is external"
    (manifest_err
       {|{"schema":"vm1dp-bench-manifest/1","name":"x","designs":[{"id":"a","generate":"m0"},{"id":"smoke","def":"m0_smoke.def"}],"archs":["closedm1"],"utils":[0.7],"scales":[16],"params":[{"id":"p","alpha":0},{"id":"q","row_dp":true}]}|})

(* --- the one whole-file reader every loader shares --------------------- *)

let test_read_whole_file_bytes () =
  (* binary mode: CR LF, NUL and high bytes come back untranslated *)
  let text = "VERSION 5.8 ;\r\n#\000\255\nEND DESIGN\n" in
  let path = Filename.temp_file "vm1dp_lex" ".def" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc text;
      close_out oc;
      checks "bytes read back unchanged" text (Io.Lex.read_whole_file path))

let test_read_whole_file_bad_path () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "vm1dp_no/such.def" in
  match Io.Lex.read_whole_file path with
  | _ -> Alcotest.fail "a missing file was read"
  | exception Sys_error _ -> ()

(* --- the reason the codec exists: QoR survives the round-trip --------- *)

let fstr f = Printf.sprintf "%.17g" f

let eval_to_string (e : Report.Flow.eval) =
  Printf.sprintf "dm1=%d m1wl=%s via12=%d hpwl=%s rwl=%s wns=%s power=%s drvs=%d align=%d"
    e.Report.Flow.dm1 (fstr e.m1_wl_um) e.via12 (fstr e.hpwl_um)
    (fstr e.rwl_um) (fstr e.wns_ns) (fstr e.power_mw) e.drvs e.alignments

let test_qor_identical_after_reingest () =
  (* optimise a placement, emit it as DEF, re-ingest through the codec
     against a freshly generated library, re-evaluate: every metric must
     be byte-identical *)
  let p =
    Report.Flow.prepare ~scale:48 Netlist.Designs.M0 Pdk.Cell_arch.Closed_m1
  in
  let params = Vm1.Params.default p.Place.Placement.tech in
  ignore (Vm1.Vm1_opt.run params p);
  let text = Io.Def.write p.Place.Placement.design (Place.Placement.to_def p) in
  let e1, _ = Report.Flow.evaluate params p in
  let fresh_lib = Pdk.Libgen.generate (Pdk.Tech.default Pdk.Cell_arch.Closed_m1) in
  let d2, def2 = ok_or_fail "re-ingest" (Io.Def.read fresh_lib text) in
  let p2 = Place.Placement.of_def d2 def2 in
  let e2, _ = Report.Flow.evaluate (Vm1.Params.default p2.Place.Placement.tech) p2 in
  checks "QoR byte-identical" (eval_to_string e1) (eval_to_string e2)

let () =
  Alcotest.run "io"
    [
      ( "def",
        [
          Alcotest.test_case "emit-parse-emit fixed point" `Quick
            test_def_emit_parse_emit_fixed_point;
          Alcotest.test_case "to_design round-trip" `Quick
            test_def_to_design_round_trip;
          Alcotest.test_case "rows and tracks" `Quick test_def_rows_and_tracks;
          Alcotest.test_case "minimal document" `Quick test_def_minimal_parses;
          QCheck_alcotest.to_alcotest prop_def_fixed_point;
        ] );
      ( "def committed",
        [
          Alcotest.test_case "committed defs are fixed points" `Quick
            test_committed_defs_fixed_point;
        ] );
      ( "def errors",
        [
          Alcotest.test_case "garbage" `Quick test_def_garbage_position;
          Alcotest.test_case "truncated" `Quick test_def_truncated_position;
          Alcotest.test_case "bad orient" `Quick test_def_bad_orient_position;
          Alcotest.test_case "count mismatch" `Quick
            test_def_count_mismatch_position;
          Alcotest.test_case "bad dbu" `Quick test_def_bad_dbu_rejected;
          Alcotest.test_case "unknown master" `Quick test_def_unknown_master;
          Alcotest.test_case "trailing garbage" `Quick test_def_trailing_garbage;
        ] );
      ( "lef",
        [
          Alcotest.test_case "emit-parse-emit fixed point" `Quick
            test_lef_emit_parse_emit_fixed_point;
          Alcotest.test_case "reconstructs library" `Quick
            test_lef_reconstructs_library;
          Alcotest.test_case "bad arch" `Quick test_lef_bad_arch_position;
          Alcotest.test_case "bad kind" `Quick test_lef_bad_kind_position;
          Alcotest.test_case "truncated" `Quick test_lef_truncated;
        ] );
      ( "manifest",
        [
          Alcotest.test_case "parse and round-trip" `Quick
            test_manifest_parse_and_roundtrip;
          Alcotest.test_case "switches round-trip" `Quick
            test_manifest_switches_roundtrip;
          Alcotest.test_case "params round-trip" `Quick
            test_manifest_params_roundtrip;
          Alcotest.test_case "errors" `Quick test_manifest_errors;
        ] );
      ( "lex",
        [
          Alcotest.test_case "read_whole_file bytes" `Quick
            test_read_whole_file_bytes;
          Alcotest.test_case "read_whole_file bad path" `Quick
            test_read_whole_file_bad_path;
        ] );
      ( "qor",
        [
          Alcotest.test_case "identical after re-ingest" `Quick
            test_qor_identical_after_reingest;
        ] );
    ]
