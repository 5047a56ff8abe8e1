(* Fixture tests for the vm1lint v2 analyzer: every rule must fire on a
   seeded violation (via [Lint.lint_source] / [Lint.run_sources] on
   inline sources, so no fixture .ml files confuse the build) and stay
   silent on the sanctioned idiom. v2 additions covered here: the
   interprocedural taint fixpoint (witness chains, sanction boundaries,
   functor aliases), the [@vm1.hot] allocation rule (including the
   [@vm1.cold] pruning and the fingerprint scheme), and the ratchet
   baseline (known debt passes, novel findings fail, fixed debt goes
   stale). *)

let lint ?(path = "lib/place/fixture.ml") src = Lint.lint_source ~path src

let rules_of ?path verdict src =
  (lint ?path src).Lint.findings
  |> List.filter_map (fun (v, (f : Lint.finding)) ->
         if v = verdict then Some f.rule else None)

let active_rules ?path src = rules_of ?path Lint.Active src

let active_findings ?path src =
  (lint ?path src).Lint.findings
  |> List.filter_map (fun (v, f) -> if v = Lint.Active then Some f else None)

let check_fires rule src () =
  Alcotest.(check (list string)) ("fires: " ^ rule) [ rule ]
    (active_rules src)

let check_silent src () =
  Alcotest.(check (list string)) "no findings" [] (active_rules src)

(* the fingerprint scheme is a public contract (the committed baseline
   depends on it), so tests recompute it from its documented inputs *)
let fp key = String.sub (Digest.to_hex (Digest.string key)) 0 12

(* --- hashtbl-order --- *)

let test_hashtbl_iter =
  check_fires "hashtbl-order"
    "let f tbl = Hashtbl.iter (fun k _ -> print_int k) tbl"

let test_hashtbl_fold_unsorted =
  check_fires "hashtbl-order"
    "let f tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []"

let test_hashtbl_fold_sorted_pipe =
  check_silent
    "let f tbl =\n\
    \  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort Int.compare"

let test_hashtbl_fold_sorted_arg =
  check_silent
    "let f tbl =\n\
    \  List.sort Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])"

let test_hashtbl_to_seq =
  check_fires "hashtbl-order" "let f tbl = Hashtbl.to_seq tbl"

(* --- poly-compare --- *)

let test_poly_compare = check_fires "poly-compare" "let f a b = compare a b"

let test_poly_compare_qualified =
  check_fires "poly-compare" "let f a b = Stdlib.compare a b"

let test_poly_hash = check_fires "poly-compare" "let f x = Hashtbl.hash x"

let test_typed_compare_ok =
  check_silent "let f a b = Int.compare a b\nlet g a b = String.compare a b"

(* polymorphic max/min only count inside a [@vm1.hot] function, where
   each call is a generic compare *)
let test_hot_max () =
  Alcotest.(check (list string)) "bare max, Stdlib.min and a nested use"
    [ "poly-compare"; "poly-compare"; "poly-compare" ]
    (active_rules
       "let[@vm1.hot] f a b = max a (Stdlib.min a b)\n\
        let[@vm1.hot] g a = let h b = min a b in h 0")

let test_hot_max_ok =
  check_silent
    "let f a b = max a b\n\
     let imax (a : int) b = if a >= b then a else b\n\
     let[@vm1.hot] g a b = imax a (Int.min a b)\n\
     let max (a : int) b = if a >= b then a else b\n\
     let[@vm1.hot] h a b = max a b"

(* --- phys-eq --- *)

let test_phys_eq = check_fires "phys-eq" "let f a b = a == b"
let test_phys_neq = check_fires "phys-eq" "let f a b = a != b"

let test_phys_eq_exec_exempt () =
  Alcotest.(check (list string)) "lib/exec may use ==" []
    (active_rules ~path:"lib/exec/exec.ml" "let f a b = a == b")

(* --- domain-prims --- *)

let test_domain_outside =
  check_fires "domain-prims" "let d = Domain.spawn (fun () -> 1)"

let test_mutex_outside =
  check_fires "domain-prims" "let m = Mutex.create ()"

let test_atomic_outside =
  check_fires "domain-prims" "let a = Atomic.make 0"

let test_domain_in_exec () =
  Alcotest.(check (list string)) "lib/exec may use Domain" []
    (active_rules ~path:"lib/exec/pool.ml" "let d = Domain.spawn (fun () -> 1)")

let test_atomic_in_grid () =
  Alcotest.(check (list string)) "grid.ml Atomic is active" [ "domain-prims" ]
    (active_rules ~path:"lib/route/grid.ml" "let a = Atomic.make 0")

(* --- global-random --- *)

let test_global_random = check_fires "global-random" "let x = Random.int 5"

let test_self_init =
  check_fires "global-random" "let st = Random.State.make_self_init ()"

let test_seeded_random_ok =
  check_silent "let f st = Random.State.int st 5"

(* --- wall-clock --- *)

let test_wall_clock =
  check_fires "wall-clock" "let t = Sys.time ()"

let test_wall_clock_report_exempt () =
  Alcotest.(check (list string)) "lib/report may read the clock" []
    (active_rules ~path:"lib/report/flow.ml" "let t = Sys.time ()");
  Alcotest.(check (list string)) "binaries may read the clock" []
    (active_rules ~path:"bin/bench.ml" "let t = Sys.time ()")

(* --- env-read --- *)

let test_env_read =
  check_fires "env-read" "let v = Sys.getenv \"VM1DP_JOBS\""

let test_env_read_opt =
  check_fires "env-read" "let v = Sys.getenv_opt \"VM1DP_JOBS\""

let test_env_read_bin_exempt () =
  Alcotest.(check (list string)) "binaries may read the environment" []
    (active_rules ~path:"bin/vm1opt.ml" "let v = Sys.getenv \"HOME\"")

(* --- exit-in-lib --- *)

let test_exit_in_lib = check_fires "exit-in-lib" "let f () = exit 1"

let test_exit_in_bin () =
  Alcotest.(check (list string)) "binaries may exit" []
    (active_rules ~path:"bin/vm1opt.ml" "let f () = exit 1")

(* --- obj-magic --- *)

let test_obj_magic = check_fires "obj-magic" "let f x = Obj.magic x"

(* --- readdir-unsorted --- *)

let test_readdir = check_fires "readdir-unsorted" "let l = Sys.readdir \".\""

let test_readdir_sorted_ok =
  check_silent
    "let l = List.sort String.compare (Array.to_list (Sys.readdir \".\"))"

(* --- marshal --- *)

let test_marshal =
  check_fires "marshal" "let s = Marshal.to_string [ 1; 2 ] []"

(* --- suppressions --- *)

let test_suppress_file () =
  let src = "(* vm1lint: allow poly-compare *)\nlet f a b = compare a b" in
  Alcotest.(check (list string)) "no active" [] (active_rules src);
  Alcotest.(check (list string)) "reported as suppressed" [ "poly-compare" ]
    (rules_of Lint.Suppressed src)

let test_suppress_next_line () =
  let src =
    "(* vm1lint: allow-next poly-compare *)\nlet f a b = compare a b"
  in
  Alcotest.(check (list string)) "no active" [] (active_rules src)

let test_suppress_wrong_line () =
  let src =
    "(* vm1lint: allow-next poly-compare *)\nlet g = 1\nlet f a b = compare a b"
  in
  Alcotest.(check (list string)) "suppression does not leak" [ "poly-compare" ]
    (active_rules src)

let test_suppress_other_rule () =
  let src = "(* vm1lint: allow marshal *)\nlet f a b = compare a b" in
  Alcotest.(check (list string)) "wrong rule still active" [ "poly-compare" ]
    (active_rules src)

(* --- interprocedural taint propagation --- *)

(* the ISSUE's motivating case: a clock read two helpers below a pure
   library function must flag every caller on the chain, each with the
   full witness path down to the primitive *)
let clock_chain_src =
  "let h () = Unix.gettimeofday ()\n\
   let g () = h ()\n\
   let f () = g ()"

let test_clock_chain_flags_callers () =
  Alcotest.(check (list string))
    "local + both callers" [ "wall-clock"; "wall-clock"; "wall-clock" ]
    (active_rules clock_chain_src)

let test_clock_chain_witness () =
  let fs = active_findings clock_chain_src in
  let top =
    match List.filter (fun (f : Lint.finding) -> f.fn = "Fixture.f") fs with
    | [ f ] -> f
    | _ -> Alcotest.fail "expected exactly one finding on Fixture.f"
  in
  Alcotest.(check (list string))
    "witness walks the whole chain"
    [ "Fixture.f"; "Fixture.g"; "Fixture.h" ]
    (List.map (fun (fn, _, _) -> fn) top.witness);
  Alcotest.(check string) "interprocedural fingerprint"
    (fp "i|wall-clock|lib/place/fixture.ml|Fixture.f|Unix.gettimeofday")
    top.fingerprint

(* the taint stops at a file where the primitive is sanctioned: a timer
   wrapper in lib/report exports no wall-clock taint, so its lib/place
   caller stays clean (the wrapper is the sanctioned seam) *)
let test_clock_sanctioned_at_boundary () =
  let run =
    Lint.run_sources
      [
        ("lib/report/tick.ml", "let now () = Unix.gettimeofday ()");
        ("lib/place/user.ml", "let f () = Tick.now ()");
      ]
  in
  Alcotest.(check int) "no active findings" 0 (Lint.active run)

(* a Hashtbl fold hidden behind a functor instantiation: the alias
   [module M = Make (...)] must resolve so the caller of [M.dump] is
   flagged, while a caller that sorts the result is sanctioned *)
let functor_src =
  "module Make (X : sig end) = struct\n\
  \  let dump tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []\n\
   end\n\
   module M = Make (struct end)\n\
   let use tbl = M.dump tbl\n\
   let use_sorted tbl = List.sort Int.compare (M.dump tbl)"

let test_functor_fold_flags_caller () =
  let fs = active_findings functor_src in
  Alcotest.(check (list string))
    "local in the functor, interproc on the caller"
    [ "hashtbl-order"; "hashtbl-order" ]
    (List.map (fun (f : Lint.finding) -> f.rule) fs);
  match List.filter (fun (f : Lint.finding) -> f.fn = "Fixture.use") fs with
  | [ f ] ->
    Alcotest.(check (list string))
      "witness crosses the alias"
      [ "Fixture.use"; "Fixture.Make.dump" ]
      (List.map (fun (fn, _, _) -> fn) f.witness)
  | _ -> Alcotest.fail "expected exactly one finding on Fixture.use"

let test_functor_fold_sorted_caller_clean () =
  let fs = active_findings functor_src in
  Alcotest.(check (list string)) "use_sorted is sanctioned" []
    (List.filter_map
       (fun (f : Lint.finding) ->
         if f.fn = "Fixture.use_sorted" then Some f.fn else None)
       fs)

(* suppressing the primitive also stops the taint at the source *)
let test_suppressed_taint_does_not_propagate () =
  let src =
    "(* vm1lint: allow wall-clock *)\n\
     let h () = Unix.gettimeofday ()\n\
     let f () = h ()"
  in
  Alcotest.(check (list string)) "no active" [] (active_rules src);
  Alcotest.(check (list string)) "source is suppressed" [ "wall-clock" ]
    (rules_of Lint.Suppressed src)

(* --- hot-alloc --- *)

(* an allocation in a callee of a [@vm1.hot] function fires, carries the
   call-path witness, and keys its fingerprint on (file, allocating
   function, kind) — the exact committed-baseline contract *)
let test_hot_callee_alloc () =
  let src = "let mk x = (x, x)\nlet[@vm1.hot] loop x = mk x" in
  match active_findings src with
  | [ f ] ->
    Alcotest.(check string) "rule" "hot-alloc" f.rule;
    Alcotest.(check string) "allocating function" "Fixture.mk" f.fn;
    Alcotest.(check (list string))
      "witness from the hot root to the allocation"
      [ "Fixture.loop"; "Fixture.mk" ]
      (List.map (fun (fn, _, _) -> fn) f.witness);
    Alcotest.(check string) "fingerprint"
      (fp "h|lib/place/fixture.ml|Fixture.mk|tuple")
      f.fingerprint
  | fs ->
    Alcotest.failf "expected exactly one hot-alloc finding, got %d"
      (List.length fs)

let test_hot_own_alloc_fires =
  check_fires "hot-alloc" "let[@vm1.hot] f x = Some x"

let test_hot_cold_branch_pruned =
  check_silent
    "let grow x = (x, x)\n\
     let[@vm1.hot] f x = if x = 0 then begin fst (grow x) end [@vm1.cold] \
     else x"

let test_hot_cold_callee_pruned =
  check_silent
    "let[@vm1.cold] grow x = (x, x)\nlet[@vm1.hot] f x = fst (grow x)"

let test_not_hot_alloc_silent = check_silent "let f x = (x, x)"

(* the deliberately-boxed A* fixture from the ISSUE: a pop loop that
   boxes its scan state in refs and closures must light up *)
let test_boxed_astar_fixture () =
  let src =
    "let[@vm1.hot] astar_pop q =\n\
    \  let best = ref max_int in\n\
    \  List.iter (fun (p, _) -> if p < !best then best := p) q;\n\
    \  List.filter (fun (p, _) -> p <> !best) q"
  in
  let kinds =
    List.sort_uniq String.compare
      (List.map (fun (f : Lint.finding) -> f.message) (active_findings src))
  in
  Alcotest.(check bool) "boxed pop loop fires" true (List.length kinds >= 2);
  let rules =
    List.sort_uniq String.compare
      (List.map (fun (f : Lint.finding) -> f.rule) (active_findings src))
  in
  Alcotest.(check (list string)) "all findings are hot-alloc" [ "hot-alloc" ]
    rules

(* --- the ratchet baseline --- *)

let ratchet_src = "let f a b = compare a b"

let test_baseline_absorbs_known_debt () =
  (* first run: the finding is active; its fingerprint becomes debt *)
  let run1 = Lint.run_sources [ ("lib/place/fixture.ml", ratchet_src) ] in
  Alcotest.(check int) "novel finding is active" 1 (Lint.active run1);
  let baseline = Lint.baseline_entries run1 in
  Alcotest.(check int) "one baseline entry" 1 (List.length baseline);
  (* second run against the baseline: same debt, nothing active *)
  let run2 =
    Lint.run_sources ~baseline [ ("lib/place/fixture.ml", ratchet_src) ]
  in
  Alcotest.(check int) "baselined debt passes" 0 (Lint.active run2);
  Alcotest.(check int) "reported as baselined" 1
    (Lint.count run2 Lint.Baselined);
  Alcotest.(check int) "nothing stale" 0 (List.length run2.Lint.stale)

let test_novel_finding_still_fails () =
  let run1 = Lint.run_sources [ ("lib/place/fixture.ml", ratchet_src) ] in
  let baseline = Lint.baseline_entries run1 in
  let run2 =
    Lint.run_sources ~baseline
      [
        ( "lib/place/fixture.ml",
          ratchet_src ^ "\nlet g tbl = Hashtbl.iter (fun _ _ -> ()) tbl" );
      ]
  in
  Alcotest.(check int) "the old debt is still absorbed" 1
    (Lint.count run2 Lint.Baselined);
  Alcotest.(check int) "the new finding is active" 1 (Lint.active run2)

let test_fixed_debt_goes_stale () =
  let run1 = Lint.run_sources [ ("lib/place/fixture.ml", ratchet_src) ] in
  let baseline = Lint.baseline_entries run1 in
  let run2 =
    Lint.run_sources ~baseline
      [ ("lib/place/fixture.ml", "let f a b = Int.compare a b") ]
  in
  Alcotest.(check int) "nothing active" 0 (Lint.active run2);
  Alcotest.(check int) "the fixed entry is stale" 1
    (List.length run2.Lint.stale)

let test_update_shrinks_baseline () =
  (* --update-baseline semantics: entries are this run's Active +
     Baselined findings, so fixing debt drops its entry *)
  let run1 = Lint.run_sources [ ("lib/place/fixture.ml", ratchet_src) ] in
  let baseline = Lint.baseline_entries run1 in
  let run2 =
    Lint.run_sources ~baseline
      [ ("lib/place/fixture.ml", "let f a b = Int.compare a b") ]
  in
  Alcotest.(check int) "rewritten baseline is empty" 0
    (List.length (Lint.baseline_entries run2))

let test_baseline_round_trip () =
  let run1 = Lint.run_sources [ ("lib/place/fixture.ml", ratchet_src) ] in
  let file = Filename.temp_file "vm1lint_baseline" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Lint.save_baseline file run1;
      match Lint.load_baseline file with
      | Error e -> Alcotest.fail ("baseline does not round-trip: " ^ e)
      | Ok b ->
        Alcotest.(check (list string))
          "fingerprints survive the round-trip"
          (List.map fst (Lint.baseline_entries run1))
          (List.map fst b))

(* --- parse errors and aggregation --- *)

let test_parse_error () =
  let r = lint "let let = in" in
  Alcotest.(check bool) "parse error recorded" true (r.Lint.parse_error <> None)

let test_active_counts_parse_errors () =
  let run = Lint.run_sources [ ("broken.ml", "let let = in") ] in
  Alcotest.(check int) "parse error counts as active" 1 (Lint.active run)

let test_rule_count () =
  Alcotest.(check bool) "at least 12 rules" true
    (List.length Lint.rules >= 12)

let test_json_shape () =
  let run = Lint.run_sources [ ("f.ml", "let x = compare") ] in
  let j = Lint.to_json run in
  let str_member k =
    match Obs.Json.member k j with
    | Some (Obs.Json.Str s) -> s
    | _ -> "missing"
  in
  Alcotest.(check string) "schema" Obs.Schemas.lint (str_member "schema");
  Alcotest.(check bool) "call-graph counters present" true
    (Obs.Json.member "functions" j <> None
    && Obs.Json.member "call_edges" j <> None);
  match Obs.Json.parse (Obs.Json.to_string j) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("report JSON does not round-trip: " ^ e)

(* --- the repository itself --- *)

(* Tests run in _build/default/test, where the stanza's deps put the
   linted sources one level up. A missing path fails the test rather
   than skipping it, so no gate here can pass without linting. *)
let require paths =
  List.iter
    (fun p ->
      if not (Sys.file_exists p) then
        Alcotest.failf "%s not found from %s; run this test through dune" p
          (Sys.getcwd ()))
    paths

let test_repo_clean_vs_baseline () =
  let paths = [ "../lib"; "../bin"; "../bench"; "../test" ] in
  require ("../lint_baseline.json" :: paths);
  match Lint.load_baseline "../lint_baseline.json" with
  | Error e -> Alcotest.fail ("committed baseline unreadable: " ^ e)
  | Ok baseline ->
    let run = Lint.run_paths ~baseline paths in
    let actives =
      List.concat_map
        (fun (_, (r : Lint.report)) ->
          List.filter_map
            (fun (v, (f : Lint.finding)) ->
              if v = Lint.Active then
                Some (Printf.sprintf "%s:%d [%s]" f.file f.line f.rule)
              else None)
            r.findings)
        run.Lint.reports
    in
    Alcotest.(check (list string)) "zero findings beyond the baseline" []
      actives

(* the real router hot path must satisfy the hot-alloc rule without any
   baseline help: Bqueue push/pop/prepare/clear and the A* loop are
   annotated and allocation-free *)
let test_router_hot_path_clean () =
  require [ "../lib/route" ];
  let run = Lint.run_paths [ "../lib/route" ] in
  Alcotest.(check bool) "router.ml was linted" true
    (List.exists
       (fun (path, _) -> Filename.basename path = "router.ml")
       run.Lint.reports);
  let hot_allocs =
    List.concat_map
      (fun (_, (r : Lint.report)) ->
        List.filter_map
          (fun (v, (f : Lint.finding)) ->
            if v = Lint.Active && f.rule = "hot-alloc" then
              Some (Printf.sprintf "%s:%d %s" f.file f.line f.fn)
            else None)
          r.findings)
      run.Lint.reports
  in
  Alcotest.(check (list string)) "router hot path allocation-free" []
    hot_allocs;
  Alcotest.(check int) "no other active findings either" 0 (Lint.active run)

let test_no_suppressions_in_core () =
  let paths = [ "../lib/vm1"; "../lib/route" ] in
  require paths;
  let run = Lint.run_paths paths in
  let suppressed =
    List.concat_map
      (fun (path, (r : Lint.report)) ->
        List.filter_map
          (fun (v, _) -> if v = Lint.Suppressed then Some path else None)
          r.findings)
      run.Lint.reports
  in
  Alcotest.(check (list string)) "lib/vm1 and lib/route suppression-free" []
    suppressed

let () =
  Alcotest.run "lint"
    [
      ( "hashtbl-order",
        [
          Alcotest.test_case "iter fires" `Quick test_hashtbl_iter;
          Alcotest.test_case "unsorted fold fires" `Quick
            test_hashtbl_fold_unsorted;
          Alcotest.test_case "fold |> sort is sanctioned" `Quick
            test_hashtbl_fold_sorted_pipe;
          Alcotest.test_case "sort (fold ...) is sanctioned" `Quick
            test_hashtbl_fold_sorted_arg;
          Alcotest.test_case "to_seq fires" `Quick test_hashtbl_to_seq;
        ] );
      ( "poly-compare",
        [
          Alcotest.test_case "bare compare fires" `Quick test_poly_compare;
          Alcotest.test_case "Stdlib.compare fires" `Quick
            test_poly_compare_qualified;
          Alcotest.test_case "Hashtbl.hash fires" `Quick test_poly_hash;
          Alcotest.test_case "typed comparators pass" `Quick
            test_typed_compare_ok;
          Alcotest.test_case "max/min in [@vm1.hot] fire" `Quick test_hot_max;
          Alcotest.test_case "int-only or cold max passes" `Quick
            test_hot_max_ok;
        ] );
      ( "phys-eq",
        [
          Alcotest.test_case "== fires" `Quick test_phys_eq;
          Alcotest.test_case "!= fires" `Quick test_phys_neq;
          Alcotest.test_case "lib/exec exempt" `Quick test_phys_eq_exec_exempt;
        ] );
      ( "domain-prims",
        [
          Alcotest.test_case "Domain.spawn fires" `Quick test_domain_outside;
          Alcotest.test_case "Mutex fires" `Quick test_mutex_outside;
          Alcotest.test_case "Atomic fires" `Quick test_atomic_outside;
          Alcotest.test_case "lib/exec exempt" `Quick test_domain_in_exec;
          Alcotest.test_case "grid.ml Atomic active" `Quick test_atomic_in_grid;
        ] );
      ( "global-random",
        [
          Alcotest.test_case "Random.int fires" `Quick test_global_random;
          Alcotest.test_case "make_self_init fires" `Quick test_self_init;
          Alcotest.test_case "seeded state passes" `Quick
            test_seeded_random_ok;
        ] );
      ( "wall-clock",
        [
          Alcotest.test_case "Sys.time fires in pure lib" `Quick
            test_wall_clock;
          Alcotest.test_case "report/bin exempt" `Quick
            test_wall_clock_report_exempt;
        ] );
      ( "env-read",
        [
          Alcotest.test_case "Sys.getenv fires" `Quick test_env_read;
          Alcotest.test_case "Sys.getenv_opt fires" `Quick test_env_read_opt;
          Alcotest.test_case "bin exempt" `Quick test_env_read_bin_exempt;
        ] );
      ( "exit-in-lib",
        [
          Alcotest.test_case "exit fires in lib" `Quick test_exit_in_lib;
          Alcotest.test_case "bin exempt" `Quick test_exit_in_bin;
        ] );
      ("obj-magic", [ Alcotest.test_case "fires" `Quick test_obj_magic ]);
      ( "readdir-unsorted",
        [
          Alcotest.test_case "fires" `Quick test_readdir;
          Alcotest.test_case "sorted is sanctioned" `Quick
            test_readdir_sorted_ok;
        ] );
      ("marshal", [ Alcotest.test_case "fires" `Quick test_marshal ]);
      ( "suppressions",
        [
          Alcotest.test_case "file-wide allow" `Quick test_suppress_file;
          Alcotest.test_case "allow-next" `Quick test_suppress_next_line;
          Alcotest.test_case "allow-next does not leak" `Quick
            test_suppress_wrong_line;
          Alcotest.test_case "rule-scoped" `Quick test_suppress_other_rule;
        ] );
      ( "interproc",
        [
          Alcotest.test_case "clock chain flags callers" `Quick
            test_clock_chain_flags_callers;
          Alcotest.test_case "witness + fingerprint" `Quick
            test_clock_chain_witness;
          Alcotest.test_case "sanctioned at the boundary" `Quick
            test_clock_sanctioned_at_boundary;
          Alcotest.test_case "functor fold flags caller" `Quick
            test_functor_fold_flags_caller;
          Alcotest.test_case "sorted caller clean" `Quick
            test_functor_fold_sorted_caller_clean;
          Alcotest.test_case "suppression stops the taint" `Quick
            test_suppressed_taint_does_not_propagate;
        ] );
      ( "hot-alloc",
        [
          Alcotest.test_case "callee alloc, witness, fingerprint" `Quick
            test_hot_callee_alloc;
          Alcotest.test_case "own alloc fires" `Quick test_hot_own_alloc_fires;
          Alcotest.test_case "cold branch pruned" `Quick
            test_hot_cold_branch_pruned;
          Alcotest.test_case "cold callee pruned" `Quick
            test_hot_cold_callee_pruned;
          Alcotest.test_case "unannotated silent" `Quick
            test_not_hot_alloc_silent;
          Alcotest.test_case "boxed A* fixture fires" `Quick
            test_boxed_astar_fixture;
        ] );
      ( "ratchet",
        [
          Alcotest.test_case "baseline absorbs known debt" `Quick
            test_baseline_absorbs_known_debt;
          Alcotest.test_case "novel finding still fails" `Quick
            test_novel_finding_still_fails;
          Alcotest.test_case "fixed debt goes stale" `Quick
            test_fixed_debt_goes_stale;
          Alcotest.test_case "update shrinks baseline" `Quick
            test_update_shrinks_baseline;
          Alcotest.test_case "baseline round-trips" `Quick
            test_baseline_round_trip;
        ] );
      ( "report",
        [
          Alcotest.test_case "parse error surfaces" `Quick test_parse_error;
          Alcotest.test_case "parse error is active" `Quick
            test_active_counts_parse_errors;
          Alcotest.test_case ">= 12 rules" `Quick test_rule_count;
          Alcotest.test_case "json schema" `Quick test_json_shape;
        ] );
      ( "repo",
        [
          Alcotest.test_case "repo clean vs committed baseline" `Quick
            test_repo_clean_vs_baseline;
          Alcotest.test_case "router hot path allocation-free" `Quick
            test_router_hot_path_clean;
          Alcotest.test_case "core libs suppression-free" `Quick
            test_no_suppressions_in_core;
        ] );
    ]
