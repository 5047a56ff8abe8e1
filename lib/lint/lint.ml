(* vm1lint v2: a two-phase, whole-repo determinism / allocation analyzer.

   Phase 1 parses every .ml file and walks its Parsetree, building a call
   graph whose nodes are the named functions (any nesting depth, module
   path included) with a per-function summary: the determinism taints it
   introduces directly (wall-clock / env / global-random reads, unsorted
   Hashtbl iteration, Domain/Atomic primitives), the allocation sites in
   its body (tuples, records, variants, closures, arrays, a curated
   table of allocating stdlib calls), the calls it makes, and whether it
   is annotated [@vm1.hot] / [@vm1.cold].

   Phase 2 resolves calls across files (module paths, library-wrapper
   prefixes, `module M = Make (...)` aliases, lexical scope) and
   propagates taints to fixpoint, so a clock read three helpers deep
   still flags the pure-library caller — with the full call chain as a
   witness. It also walks the call graph from every [@vm1.hot] function
   and reports allocation sites reachable from it ([@vm1.cold] prunes
   amortized-growth branches from the walk).

   The analysis stays syntactic (no typechecking): call resolution is a
   best-effort over module paths and is deliberately conservative —
   ambiguous targets resolve to nothing rather than guessing. *)

type rule = {
  name : string;
  summary : string;
}

let rules =
  [
    { name = "hashtbl-order";
      summary =
        "Hashtbl.iter/fold/to_seq iterate in hash order; only the \
         collect-then-sort idiom (fold piped into List.sort) may feed \
         ordered output (propagates through callers)" };
    { name = "poly-compare";
      summary =
        "bare polymorphic compare/Hashtbl.hash, or a polymorphic \
         max/min inside a [@vm1.hot] function; use Int.compare, \
         String.compare, a typed comparator or an int-only max" };
    { name = "phys-eq";
      summary =
        "physical equality (==/!=) on boxed values is \
         representation-dependent; reserved for lib/exec and lib/obs \
         identity checks" };
    { name = "domain-prims";
      summary =
        "Domain/Mutex/Condition/Atomic/Thread belong to lib/exec and \
         lib/obs (propagates through callers)" };
    { name = "global-random";
      summary =
        "global Random state (or make_self_init) is unseeded; use \
         Random.State with a deterministic seed (propagates through \
         callers)" };
    { name = "wall-clock";
      summary =
        "wall-clock reads (Sys.time, Unix.gettimeofday, ...) in pure \
         flow stages; timing belongs to lib/obs spans and the report \
         layer (propagates through callers)" };
    { name = "env-read";
      summary =
        "environment reads (Sys.getenv, Unix.environment, ...) make a \
         pure flow stage depend on ambient process state; read the \
         environment in binaries and pass values down (propagates \
         through callers)" };
    { name = "exit-in-lib";
      summary = "libraries must raise, not exit; exit is for binaries" };
    { name = "obj-magic";
      summary = "Obj.* defeats the type system and invites undefined \
                 behaviour" };
    { name = "readdir-unsorted";
      summary =
        "Sys.readdir order is filesystem-dependent; sort before use" };
    { name = "marshal";
      summary =
        "Marshal output is not stable across compiler versions or \
         sharing; use a textual format" };
    { name = "hot-alloc";
      summary =
        "allocation site reachable from a [@vm1.hot] function; hoist \
         the allocation, restructure, or mark the amortized branch \
         [@vm1.cold]" };
  ]

let rule_names = List.map (fun r -> r.name) rules

type finding = {
  rule : string;
  file : string;
  line : int;
  col : int;
  message : string;
  fn : string;
  fingerprint : string;
  witness : (string * string * int) list;
}

type verdict =
  | Active
  | Suppressed
  | Baselined

type report = {
  findings : (verdict * finding) list;
  parse_error : string option;
}

(* --- path classification -------------------------------------------- *)

let norm_path p = String.map (fun c -> if c = '\\' then '/' else c) p

(* fingerprints must agree no matter where vm1lint was started from, so
   strip any ./ and ../ run-location prefixes *)
let rel_path p =
  let p = norm_path p in
  let rec strip p =
    if String.length p > 2 && String.sub p 0 2 = "./" then
      strip (String.sub p 2 (String.length p - 2))
    else if String.length p > 3 && String.sub p 0 3 = "../" then
      strip (String.sub p 3 (String.length p - 3))
    else p
  in
  strip p

let path_has p frag =
  let p = "/" ^ norm_path p in
  let lp = String.length p and lf = String.length frag in
  let rec go i = i + lf <= lp && (String.sub p i lf = frag || go (i + 1)) in
  go 0

let in_exec p = path_has p "/lib/exec/"
let in_obs p = path_has p "/lib/obs/"
let in_lib p = path_has p "/lib/"

(* stages allowed to read the clock (and the environment): obs owns it,
   exec schedules with it, report/bench/bin present wall times to humans *)
let clock_ok p =
  (not (in_lib p)) || in_obs p || in_exec p || path_has p "/lib/report/"

(* --- suppression comments ------------------------------------------- *)

type suppressions = {
  file_wide : (string, unit) Hashtbl.t;
  by_line : (int * string, unit) Hashtbl.t;
}

let is_rule_name s = List.mem s rule_names

let scan_suppressions src =
  let sup =
    { file_wide = Hashtbl.create 4; by_line = Hashtbl.create 4 }
  in
  let lines = String.split_on_char '\n' src in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let marker = "vm1lint:" in
      let mlen = String.length marker in
      let len = String.length line in
      let rec find j =
        if j + mlen > len then ()
        else if String.sub line j mlen = marker then begin
          let rest = String.sub line (j + mlen) (len - j - mlen) in
          let words =
            String.split_on_char ' ' rest
            |> List.concat_map (String.split_on_char '\t')
            |> List.filter (fun w -> w <> "")
          in
          match words with
          | mode :: args
            when mode = "allow" || mode = "allow-line" || mode = "allow-next"
            ->
            let rec take = function
              | w :: tl when is_rule_name w -> w :: take tl
              | _ -> []
            in
            List.iter
              (fun r ->
                match mode with
                | "allow" -> Hashtbl.replace sup.file_wide r ()
                | "allow-line" -> Hashtbl.replace sup.by_line (lineno, r) ()
                | _ -> Hashtbl.replace sup.by_line (lineno + 1, r) ())
              (take args)
          | _ -> ()
        end
        else find (j + 1)
      in
      find 0)
    lines;
  sup

let suppressed sup ~rule ~line =
  Hashtbl.mem sup.file_wide rule || Hashtbl.mem sup.by_line (line, rule)

(* --- Parsetree helpers ---------------------------------------------- *)

let flatten_lid lid = String.concat "." (Longident.flatten lid)

(* strip the Stdlib/Pervasives prefix so qualified and bare spellings of
   a stdlib identifier hit the same rule pattern *)
let canonical name =
  let strip pre n =
    let lp = String.length pre in
    if String.length n > lp && String.sub n 0 lp = pre then
      String.sub n lp (String.length n - lp)
    else n
  in
  strip "Stdlib." (strip "Pervasives." name)

let starts_with pre s =
  let lp = String.length pre in
  String.length s >= lp && String.sub s 0 lp = pre

let ends_with suf s =
  let ls = String.length suf and l = String.length s in
  l >= ls && String.sub s (l - ls) ls = suf

let head_module name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let sort_functions =
  [ "List.sort"; "List.stable_sort"; "List.sort_uniq"; "List.fast_sort";
    "Array.sort"; "Array.stable_sort"; "Array.fast_sort" ]

(* spans are character-offset ranges within the source buffer *)
type span = { s_lo : int; s_hi : int }

let span_of_loc (l : Location.t) =
  { s_lo = l.loc_start.pos_cnum; s_hi = l.loc_end.pos_cnum }

let inside outer inner = outer.s_lo <= inner.s_lo && inner.s_hi <= outer.s_hi

let mentions_sort (e : Parsetree.expression) =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match ex.Parsetree.pexp_desc with
          | Pexp_ident { txt; _ }
            when List.mem (canonical (flatten_lid txt)) sort_functions ->
            found := true
          | _ -> ());
          Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.expr it e;
  !found

(* The spans of every expression that flows into a sort — the sanctioned
   way for a hash-ordered fold result to become ordered output. Covers
   [List.sort cmp e], [e |> List.sort cmp] and [List.sort cmp @@ e]. A
   call site inside such a span also blocks an inherited hashtbl-order
   taint: the caller sorts whatever order the callee produced. *)
let collect_sorted_spans str =
  let spans = ref [] in
  let add (e : Parsetree.expression) =
    spans := span_of_loc e.pexp_loc :: !spans
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match ex.Parsetree.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
            let name = canonical (flatten_lid txt) in
            if List.mem name sort_functions then
              List.iter (fun (_, a) -> add a) args
            else if name = "|>" then begin
              match args with
              | [ (_, lhs); (_, rhs) ] when mentions_sort rhs -> add lhs
              | _ -> ()
            end
            else if name = "@@" then begin
              match args with
              | [ (_, f); (_, x) ] when mentions_sort f -> add x
              | _ -> ()
            end
          | _ -> ());
          Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.structure it str;
  !spans

let hashtbl_iters = [ "Hashtbl.iter"; "MoreLabels.Hashtbl.iter" ]

let hashtbl_folds =
  [ "Hashtbl.fold"; "Hashtbl.to_seq"; "Hashtbl.to_seq_keys";
    "Hashtbl.to_seq_values"; "MoreLabels.Hashtbl.fold" ]

let wall_clock_calls =
  [ "Sys.time"; "Unix.gettimeofday"; "Unix.time"; "Unix.gmtime";
    "Unix.localtime"; "Unix.mktime" ]

let env_calls =
  [ "Sys.getenv"; "Sys.getenv_opt"; "Unix.getenv"; "Unix.unsafe_getenv";
    "Unix.environment"; "Unix.unsafe_environment" ]

(* stdlib calls that allocate on every invocation — the curated table
   behind the call:* hot-alloc kinds. Boxing conversions (Int64.of_int
   and friends) are here because they are the classic hidden allocation
   in OCaml hot loops. *)
let alloc_calls =
  [ "ref"; "incr"; "decr" ] @ [ "^"; "@" ]
  @ [ "Array.make"; "Array.init"; "Array.copy"; "Array.append";
      "Array.sub"; "Array.of_list"; "Array.to_list"; "Array.concat";
      "Array.map"; "Array.mapi"; "Array.make_matrix" ]
  @ [ "Bytes.create"; "Bytes.make"; "Bytes.copy"; "Bytes.sub";
      "Bytes.of_string"; "Bytes.to_string"; "Bytes.extend" ]
  @ [ "Buffer.create"; "Buffer.contents"; "Buffer.to_bytes" ]
  @ [ "String.make"; "String.init"; "String.sub"; "String.concat";
      "String.cat"; "String.map"; "String.mapi"; "String.split_on_char";
      "String.lowercase_ascii"; "String.uppercase_ascii";
      "String.capitalize_ascii"; "String.trim" ]
  @ [ "List.map"; "List.mapi"; "List.rev_map"; "List.init"; "List.append";
      "List.rev"; "List.rev_append"; "List.concat"; "List.concat_map";
      "List.flatten"; "List.filter"; "List.filter_map"; "List.sort";
      "List.stable_sort"; "List.fast_sort"; "List.sort_uniq"; "List.merge";
      "List.split"; "List.combine"; "List.of_seq"; "List.partition" ]
  @ [ "Hashtbl.create"; "Hashtbl.copy"; "Hashtbl.find_opt";
      "Hashtbl.find_all"; "Hashtbl.fold" ]
  @ [ "Queue.create"; "Queue.push"; "Queue.add"; "Stack.create";
      "Stack.push" ]
  @ [ "Digest.string"; "Digest.bytes"; "Digest.substring"; "Digest.to_hex" ]
  @ [ "Printf.sprintf"; "Format.asprintf"; "Format.sprintf" ]
  @ [ "string_of_int"; "string_of_float"; "float_of_string";
      "int_of_string_opt"; "float_of_string_opt" ]
  @ [ "Int64.of_int"; "Int64.of_float"; "Int64.bits_of_float";
      "Int64.to_string"; "Int32.of_int"; "Nativeint.of_int" ]

(* calls whose argument subtree is error-construction: allocating the
   message of a raise/failwith is not a hot-path allocation *)
let raise_heads =
  [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ]

(* the annotations the hot-alloc rule keys on *)
let hot_attr = "vm1.hot"
let cold_attr = "vm1.cold"

let has_attr name (attrs : Parsetree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) -> a.attr_name.txt = name)
    attrs

(* --- phase 1: the call graph ---------------------------------------- *)

(* a call edge, pre-resolution: [c_target] is a node id when the callee
   was resolved lexically during the walk, -1 when resolution is
   deferred to phase 2 (dotted names) *)
type call = {
  c_name : string;
  mutable c_target : int;
  c_sorted : bool;  (* call site flows into a sort *)
  c_cold : bool;    (* call site is inside a [@vm1.cold] subtree *)
}

type taint_src = {
  t_rule : string;
  t_prim : string;
}

type alloc_site = {
  a_kind : string;
  a_line : int;
  a_col : int;
}

type node = {
  n_id : int;
  n_path : string;  (* e.g. "Router.search.run" *)
  n_file : string;  (* rel_path of the defining file *)
  n_line : int;
  n_col : int;
  n_hot : bool;
  n_cold : bool;
  mutable n_taints : taint_src list;     (* direct, post-suppression *)
  mutable n_allocs : alloc_site list;    (* in source order *)
  mutable n_calls : call list;
}

(* a raw (pre-classification) finding; [prim] is the offending
   identifier / allocation kind, used by vetting and fingerprints *)
type raw = {
  r_rule : string;
  r_file : string;
  r_line : int;
  r_col : int;
  r_msg : string;
  r_fn : string;
  r_prim : string;
  r_witness : (string * string * int) list;
}

type file_ctx = {
  f_path : string;           (* as given *)
  f_rel : string;            (* rel_path *)
  f_sup : suppressions;
  f_aliases : (string * string) list;  (* module alias -> target path *)
  f_locals : raw list;       (* local findings, source order *)
  f_error : string option;
}

let module_name_of_file path =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename path))

let taint_rules =
  [ "wall-clock"; "env-read"; "global-random"; "hashtbl-order";
    "domain-prims" ]

(* may a taint of [rule] leave a function defined in [file]? A file that
   sanctions the primitive absorbs the taint: report/bench/bin may read
   clocks and environments, exec/obs own the domain primitives. *)
let taint_sanctioned rule file =
  match rule with
  | "wall-clock" | "env-read" -> clock_ok file
  | "domain-prims" -> in_exec file || in_obs file
  | _ -> false

(* is an inherited taint of [rule] worth a finding in [file]? (the same
   predicates the local rules use) *)
let taint_reportable rule file =
  match rule with
  | "wall-clock" | "env-read" -> not (clock_ok file)
  | "domain-prims" -> not (in_exec file || in_obs file)
  | _ -> true

let pat_vars p =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun self q ->
          (match q.Parsetree.ppat_desc with
          | Ppat_var { txt; _ } -> acc := txt :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.pat self q);
    }
  in
  it.pat it p;
  !acc

let binding_name (vb : Parsetree.value_binding) =
  match vb.pvb_pat.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) -> Some txt
  | _ -> None

let rec is_function (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_newtype (_, b) | Pexp_constraint (b, _) -> is_function b
  | _ -> false

(* Walk one file's structure, appending nodes to [nodes] (a reversed
   accumulator shared across files) and returning the file context. *)
let walk_file ~path ~sup ~nodes ~next_id str =
  let rel = rel_path path in
  let sorted_spans = collect_sorted_spans str in
  let in_sorted loc =
    let sp = span_of_loc loc in
    List.exists (fun outer -> inside outer sp) sorted_spans
  in
  let file_nodes = ref [] in
  let locals = ref [] in
  let aliases = ref [] in
  (* reversed context: innermost first; starts at the file module *)
  let ctx_stack = ref [ module_name_of_file path ] in
  (* lexical scope: (name, node id) with -2 marking a non-function
     binding that shadows any same-named function *)
  let scope = ref [] in
  let cur = ref None in
  let cold_depth = ref 0 in
  let exempt_depth = ref 0 in
  (* > 0 while walking the body of a [@vm1.hot] function *)
  let hot_depth = ref 0 in
  let fresh_node name (loc : Location.t) ~hot ~cold =
    let id = !next_id in
    incr next_id;
    let p = loc.loc_start in
    let n =
      {
        n_id = id;
        n_path = String.concat "." (List.rev (name :: !ctx_stack));
        n_file = rel;
        n_line = p.pos_lnum;
        n_col = p.pos_cnum - p.pos_bol;
        n_hot = hot;
        n_cold = cold;
        n_taints = [];
        n_allocs = [];
        n_calls = [];
      }
    in
    nodes := n :: !nodes;
    file_nodes := n :: !file_nodes;
    n
  in
  let emit ~rule ~loc ~message ~prim =
    let p = (loc : Location.t).loc_start in
    let fn =
      match !cur with
      | Some n -> n.n_path
      | None -> String.concat "." (List.rev !ctx_stack)
    in
    locals :=
      {
        r_rule = rule;
        r_file = rel;
        r_line = p.pos_lnum;
        r_col = p.pos_cnum - p.pos_bol;
        r_msg = message;
        r_fn = fn;
        r_prim = prim;
        r_witness = [];
      }
      :: !locals;
    (* taints feed phase 2 unless silenced at the source: a suppressed
       primitive must not re-surface through its callers *)
    match !cur with
    | Some n when List.mem rule taint_rules ->
      if not (suppressed sup ~rule ~line:p.pos_lnum) then
        n.n_taints <- { t_rule = rule; t_prim = prim } :: n.n_taints
    | _ -> ()
  in
  let record_alloc (loc : Location.t) kind =
    match !cur with
    | Some n when !cold_depth = 0 && !exempt_depth = 0 ->
      let p = loc.loc_start in
      n.n_allocs <-
        { a_kind = kind; a_line = p.pos_lnum;
          a_col = p.pos_cnum - p.pos_bol }
        :: n.n_allocs
    | _ -> ()
  in
  let record_call loc name =
    match !cur with
    | None -> ()
    | Some n ->
      let entry =
        if String.contains name '.' then
          Some { c_name = name; c_target = -1;
                 c_sorted = in_sorted loc; c_cold = !cold_depth > 0 }
        else
          match List.assoc_opt name !scope with
          | Some id when id >= 0 ->
            Some { c_name = name; c_target = id;
                   c_sorted = in_sorted loc; c_cold = !cold_depth > 0 }
          | Some _ | None -> None
      in
      (match entry with
      | Some c -> n.n_calls <- c :: n.n_calls
      | None -> ())
  in
  let check_ident loc raw_name =
    let name = canonical raw_name in
    let head = head_module name in
    if List.mem name hashtbl_iters then
      emit ~rule:"hashtbl-order" ~loc ~prim:name
        ~message:
          (name
         ^ " visits entries in hash order; collect keys with a fold, sort, \
            then iterate")
    else if List.mem name hashtbl_folds && not (in_sorted loc) then
      emit ~rule:"hashtbl-order" ~loc ~prim:name
        ~message:
          (name
         ^ " result is in hash order and does not flow into a sort; use \
            the collect-then-sort idiom")
    else if name = "compare" || name = "Hashtbl.hash"
            || name = "Hashtbl.seeded_hash" then
      emit ~rule:"poly-compare" ~loc ~prim:name
        ~message:
          (name
         ^ " is polymorphic; use Int.compare/String.compare or a typed \
            comparator")
    else if
      (name = "max" || name = "min")
      && !hot_depth > 0
      (* a bare name bound in the file is the file's own function *)
      && (raw_name <> name || not (List.mem_assoc name !scope))
    then
      emit ~rule:"poly-compare" ~loc ~prim:name
        ~message:
          (raw_name
         ^ " is polymorphic (a generic compare per call without flambda) \
            inside a [@vm1.hot] function; use an int-only max/min")
    else if (name = "==" || name = "!=") && not (in_exec rel || in_obs rel)
    then
      emit ~rule:"phys-eq" ~loc ~prim:name
        ~message:
          ("( " ^ name
         ^ " ) is physical equality; outside lib/exec and lib/obs use \
            structural equality or an explicit index")
    else if
      List.mem head
        [ "Domain"; "Mutex"; "Condition"; "Atomic"; "Thread"; "Semaphore" ]
      && not (in_exec rel || in_obs rel)
    then
      emit ~rule:"domain-prims" ~loc ~prim:name
        ~message:
          (name
         ^ " outside lib/exec and lib/obs; route parallelism through the \
            Exec pool")
    else if
      starts_with "Random." name
      && ((not (starts_with "Random.State." name))
         || name = "Random.State.make_self_init")
    then
      emit ~rule:"global-random" ~loc ~prim:name
        ~message:
          (name
         ^ " is unseeded global randomness; use Random.State.make with a \
            deterministic seed")
    else if List.mem name wall_clock_calls && not (clock_ok rel) then
      emit ~rule:"wall-clock" ~loc ~prim:name
        ~message:
          (name
         ^ " in a pure flow stage; use Obs spans (Obs.now_ns) or move \
            timing to the report layer")
    else if List.mem name env_calls && not (clock_ok rel) then
      emit ~rule:"env-read" ~loc ~prim:name
        ~message:
          (name
         ^ " in a pure flow stage; read the environment in the binary \
            and pass the value down explicitly")
    else if name = "exit" && in_lib rel then
      emit ~rule:"exit-in-lib" ~loc ~prim:name
        ~message:"exit in a library; raise instead and let the binary decide"
    else if starts_with "Obj." name then
      emit ~rule:"obj-magic" ~loc ~prim:name ~message:(name ^ " is unsafe")
    else if name = "Sys.readdir" && not (in_sorted loc) then
      emit ~rule:"readdir-unsorted" ~loc ~prim:name
        ~message:
          "Sys.readdir order is filesystem-dependent; sort the result \
           before use"
    else if starts_with "Marshal." name then
      emit ~rule:"marshal" ~loc ~prim:name
        ~message:
          (name ^ " output is not stable; prefer a textual format")
  in
  let visit_ident loc raw_name =
    check_ident loc raw_name;
    let name = canonical raw_name in
    if List.mem name alloc_calls then record_alloc loc ("call:" ^ name);
    record_call loc name
  in
  let rec module_alias_target (m : Parsetree.module_expr) =
    match m.pmod_desc with
    | Pmod_ident { txt; _ } -> Some (flatten_lid txt)
    | Pmod_apply (f, _) -> module_alias_target f
    | Pmod_constraint (inner, _) -> module_alias_target inner
    | _ -> None
  in
  let it =
    let default = Ast_iterator.default_iterator in
    let rec spine_walk self (e : Parsetree.expression) =
      match e.pexp_desc with
      | Pexp_fun (_, dflt, pat, body) ->
        Option.iter (self.Ast_iterator.expr self) dflt;
        List.iter
          (fun v -> scope := (v, -2) :: !scope)
          (pat_vars pat);
        spine_walk self body
      | Pexp_newtype (_, body) | Pexp_constraint (body, _) ->
        spine_walk self body
      | Pexp_function cases ->
        List.iter
          (fun (c : Parsetree.case) ->
            let saved = !scope in
            List.iter
              (fun v -> scope := (v, -2) :: !scope)
              (pat_vars c.pc_lhs);
            Option.iter (self.Ast_iterator.expr self) c.pc_guard;
            self.Ast_iterator.expr self c.pc_rhs;
            scope := saved)
          cases
      | _ -> self.Ast_iterator.expr self e
    in
    let do_bindings self rf (vbs : Parsetree.value_binding list) =
      (* create nodes first so a rec group sees every sibling *)
      let with_nodes =
        List.map
          (fun vb ->
            match binding_name vb with
            | Some name when is_function vb.pvb_expr ->
              let hot = has_attr hot_attr vb.pvb_attributes in
              let cold = has_attr cold_attr vb.pvb_attributes in
              (vb, Some (name, fresh_node name vb.pvb_loc ~hot ~cold))
            | _ -> (vb, None))
          vbs
      in
      let bind_all () =
        List.iter
          (fun ((vb : Parsetree.value_binding), named) ->
            match named with
            | Some (name, n) -> scope := (name, n.n_id) :: !scope
            | None ->
              List.iter
                (fun v -> scope := (v, -2) :: !scope)
                (pat_vars vb.pvb_pat))
          with_nodes
      in
      if rf = Asttypes.Recursive then bind_all ();
      List.iter
        (fun ((vb : Parsetree.value_binding), named) ->
          match named with
          | Some (name, n) ->
            let cur_saved = !cur in
            let ctx_saved = !ctx_stack in
            let scope_saved = !scope in
            cur := Some n;
            ctx_stack := name :: !ctx_stack;
            if n.n_cold then incr cold_depth;
            if n.n_hot then incr hot_depth;
            spine_walk self vb.pvb_expr;
            if n.n_hot then decr hot_depth;
            if n.n_cold then decr cold_depth;
            scope := scope_saved;
            ctx_stack := ctx_saved;
            cur := cur_saved
          | None -> self.Ast_iterator.expr self vb.pvb_expr)
        with_nodes;
      if rf <> Asttypes.Recursive then bind_all ()
    in
    let expr self (ex : Parsetree.expression) =
      let cold_here = has_attr cold_attr ex.pexp_attributes in
      if cold_here then incr cold_depth;
      (match ex.pexp_desc with
      | Pexp_ident { txt; loc } -> visit_ident loc (flatten_lid txt)
      | Pexp_let (rf, vbs, body) ->
        let saved = !scope in
        do_bindings self rf vbs;
        self.Ast_iterator.expr self body;
        scope := saved
      | Pexp_fun _ | Pexp_function _ ->
        record_alloc ex.pexp_loc "closure";
        default.expr self ex
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
        when List.mem (canonical (flatten_lid txt)) raise_heads ->
        incr exempt_depth;
        List.iter (fun (_, a) -> self.Ast_iterator.expr self a) args;
        decr exempt_depth
      | Pexp_assert e ->
        incr exempt_depth;
        self.Ast_iterator.expr self e;
        decr exempt_depth
      | Pexp_tuple _ ->
        record_alloc ex.pexp_loc "tuple";
        default.expr self ex
      | Pexp_record _ ->
        record_alloc ex.pexp_loc "record";
        default.expr self ex
      | Pexp_construct ({ txt; _ }, Some _) ->
        let kind =
          if flatten_lid txt = "::" then "list" else "variant"
        in
        record_alloc ex.pexp_loc kind;
        default.expr self ex
      | Pexp_variant (_, Some _) ->
        record_alloc ex.pexp_loc "variant";
        default.expr self ex
      | Pexp_array _ ->
        record_alloc ex.pexp_loc "array";
        default.expr self ex
      | Pexp_lazy _ ->
        record_alloc ex.pexp_loc "lazy";
        default.expr self ex
      | _ -> default.expr self ex);
      if cold_here then decr cold_depth
    in
    let structure_item self (si : Parsetree.structure_item) =
      match si.pstr_desc with
      | Pstr_value (rf, vbs) -> do_bindings self rf vbs
      | Pstr_module mb -> self.Ast_iterator.module_binding self mb
      | Pstr_recmodule mbs ->
        List.iter (self.Ast_iterator.module_binding self) mbs
      | _ -> default.structure_item self si
    in
    let module_binding self (mb : Parsetree.module_binding) =
      let name = Option.value mb.pmb_name.txt ~default:"_" in
      let rec unwrap (m : Parsetree.module_expr) =
        match m.pmod_desc with
        | Pmod_constraint (inner, _) -> unwrap inner
        | _ -> m
      in
      let m = unwrap mb.pmb_expr in
      match m.pmod_desc with
      | Pmod_ident { txt; _ } ->
        aliases := (name, flatten_lid txt) :: !aliases
      | _ ->
        (match m.pmod_desc with
        | Pmod_apply _ ->
          (match module_alias_target m with
          | Some tgt -> aliases := (name, tgt) :: !aliases
          | None -> ())
        | _ -> ());
        let ctx_saved = !ctx_stack in
        let scope_saved = !scope in
        ctx_stack := name :: !ctx_stack;
        self.Ast_iterator.module_expr self m;
        scope := scope_saved;
        ctx_stack := ctx_saved
    in
    { default with expr; structure_item; module_binding }
  in
  it.structure it str;
  (* restore source order in the accumulators *)
  List.iter
    (fun n ->
      n.n_taints <- List.rev n.n_taints;
      n.n_allocs <- List.rev n.n_allocs;
      n.n_calls <- List.rev n.n_calls)
    !file_nodes;
  {
    f_path = path;
    f_rel = rel;
    f_sup = sup;
    f_aliases = !aliases;
    f_locals = List.rev !locals;
    f_error = None;
  }

(* --- phase 2: resolution, taint fixpoint, hot-alloc reach ----------- *)

(* library-wrapper module names derived from the scanned file set: a
   file under lib/<d>/ is wrapped as <D>, so "Route.Grid.commit_wire"
   and "Grid.commit_wire" both name the node rooted at grid.ml *)
let wrapper_modules files =
  List.sort_uniq String.compare
    (List.filter_map
       (fun f ->
         let f = "/" ^ norm_path f in
         let rec find i =
           if i + 5 > String.length f then None
           else if String.sub f i 5 = "/lib/" then begin
             let rest = String.sub f (i + 5) (String.length f - i - 5) in
             match String.index_opt rest '/' with
             | Some j when j > 0 ->
               Some (String.capitalize_ascii (String.sub rest 0 j))
             | _ -> None
           end
           else find (i + 1)
         in
         find 0)
       files)

let resolve_calls (nodes : node array) (ctxs : file_ctx list) =
  let wrappers = wrapper_modules (List.map (fun c -> c.f_rel) ctxs) in
  let by_exact = Hashtbl.create 256 in
  Array.iter
    (fun n ->
      let prev =
        Option.value ~default:[] (Hashtbl.find_opt by_exact n.n_path)
      in
      Hashtbl.replace by_exact n.n_path (n.n_id :: prev))
    nodes;
  let aliases_of = Hashtbl.create 16 in
  List.iter (fun c -> Hashtbl.replace aliases_of c.f_rel c.f_aliases) ctxs;
  (* suffix lookups are indexed by the final path component, so the many
     unresolvable stdlib calls (List.map, ...) cost one probe each *)
  let last_comp s =
    match String.rindex_opt s '.' with
    | Some i -> String.sub s (i + 1) (String.length s - i - 1)
    | None -> s
  in
  let by_last = Hashtbl.create 256 in
  Array.iter
    (fun n ->
      let k = last_comp n.n_path in
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_last k) in
      Hashtbl.replace by_last k (n.n_id :: prev))
    nodes;
  let dir_of f = Filename.dirname f in
  let pick u cands =
    let file = nodes.(u).n_file in
    let dir = dir_of file in
    match List.filter (fun id -> nodes.(id).n_file = file) cands with
    | [ id ] -> id
    | _ :: _ -> -1
    | [] -> (
      match
        List.filter (fun id -> dir_of nodes.(id).n_file = dir) cands
      with
      | [ id ] -> id
      | _ :: _ -> -1
      | [] -> ( match cands with [ id ] -> id | _ -> -1 ))
  in
  let suffix_ids cand =
    let suf = "." ^ cand in
    Option.value ~default:[] (Hashtbl.find_opt by_last (last_comp cand))
    |> List.filter (fun id -> ends_with suf nodes.(id).n_path)
  in
  let edges = ref 0 in
  Array.iter
    (fun n ->
      let file_aliases =
        Option.value ~default:[] (Hashtbl.find_opt aliases_of n.n_file)
      in
      List.iter
        (fun c ->
          if c.c_target < 0 && String.contains c.c_name '.' then begin
            let name =
              let rec expand k nm =
                if k = 0 then nm
                else
                  let h = head_module nm in
                  match List.assoc_opt h file_aliases with
                  | Some repl when repl <> h ->
                    let tail =
                      String.sub nm (String.length h)
                        (String.length nm - String.length h)
                    in
                    expand (k - 1) (repl ^ tail)
                  | _ -> nm
              in
              expand 2 c.c_name
            in
            let cands = ref [ name ] in
            let h = head_module name in
            (if List.mem h wrappers then
               let stripped =
                 String.sub name
                   (String.length h + 1)
                   (String.length name - String.length h - 1)
               in
               if String.contains stripped '.' then
                 cands := !cands @ [ stripped ]);
            let rec try_cands = function
              | [] -> ()
              | cand :: tl -> (
                let exact =
                  Option.value ~default:[]
                    (Hashtbl.find_opt by_exact cand)
                in
                match exact with
                | [] -> (
                  match suffix_ids cand with
                  | [] -> try_cands tl
                  | ids ->
                    let id = pick n.n_id (List.sort Int.compare ids) in
                    if id >= 0 then c.c_target <- id else try_cands tl)
                | ids ->
                  let id = pick n.n_id (List.sort Int.compare ids) in
                  if id >= 0 then c.c_target <- id else try_cands tl)
            in
            try_cands !cands
          end;
          if c.c_target >= 0 then incr edges)
        n.n_calls)
    nodes;
  !edges

(* inherited taints: per node, rule -> (sink prim, chain of node ids
   from the first callee down to the node containing the primitive) *)
let propagate (nodes : node array) =
  let n = Array.length nodes in
  let inh = Array.make n [] in
  let direct_rules = Array.make n [] in
  Array.iteri
    (fun i nd ->
      direct_rules.(i) <-
        List.sort_uniq String.compare
          (List.map (fun t -> t.t_rule) nd.n_taints))
    nodes;
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 1000 do
    changed := false;
    incr rounds;
    Array.iteri
      (fun u nd ->
        List.iter
          (fun c ->
            if c.c_target >= 0 && c.c_target <> u then begin
              let v = c.c_target in
              let vfile = nodes.(v).n_file in
              let offer =
                List.map
                  (fun (t : taint_src) -> (t.t_rule, t.t_prim, [ v ]))
                  nodes.(v).n_taints
                @ List.map
                    (fun (r, (p, chain)) -> (r, p, v :: chain))
                    inh.(v)
              in
              List.iter
                (fun (rule, prim, chain) ->
                  if
                    (not (taint_sanctioned rule vfile))
                    && (not (rule = "hashtbl-order" && c.c_sorted))
                    && not (List.mem rule direct_rules.(u))
                  then
                    match List.assoc_opt rule inh.(u) with
                    | Some (_, old) when List.length old <= List.length chain
                      ->
                      ()
                    | Some _ ->
                      inh.(u) <-
                        (rule, (prim, chain))
                        :: List.remove_assoc rule inh.(u);
                      changed := true
                    | None ->
                      inh.(u) <- (rule, (prim, chain)) :: inh.(u);
                      changed := true)
                offer
            end)
          nd.n_calls)
      nodes
  done;
  inh

let witness_of nodes ids =
  List.map
    (fun id ->
      let n = nodes.(id) in
      (n.n_path, n.n_file, n.n_line))
    ids

let interproc_findings (nodes : node array) inh =
  let out = ref [] in
  Array.iteri
    (fun u nd ->
      let taints =
        List.sort (fun (a, _) (b, _) -> String.compare a b) inh.(u)
      in
      List.iter
        (fun (rule, (prim, chain)) ->
          if taint_reportable rule nd.n_file then begin
            let chain_paths =
              List.map (fun id -> nodes.(id).n_path) chain
            in
            let msg =
              nd.n_path ^ " reaches " ^ prim ^ " (" ^ rule ^ ") via "
              ^ String.concat " -> " chain_paths
            in
            out :=
              {
                r_rule = rule;
                r_file = nd.n_file;
                r_line = nd.n_line;
                r_col = nd.n_col;
                r_msg = msg;
                r_fn = nd.n_path;
                r_prim = prim;
                r_witness = witness_of nodes (u :: chain);
              }
              :: !out
          end)
        taints)
    nodes;
  List.rev !out

(* BFS the call graph from every [@vm1.hot] entry, skipping [@vm1.cold]
   nodes and call sites, and report each reached function's allocation
   sites aggregated per kind. Deduped across entries: the first hot
   entry (in node order, i.e. scan order) claims a (function, kind)
   pair, so fingerprints do not churn when a second entry gains a path
   to the same allocation. *)
let hot_alloc_findings (nodes : node array) =
  let emitted = Hashtbl.create 32 in
  let out = ref [] in
  Array.iter
    (fun h ->
      if h.n_hot && not h.n_cold then begin
        let parent = Hashtbl.create 64 in
        Hashtbl.replace parent h.n_id (-1);
        let q = Queue.create () in
        Queue.push h.n_id q;
        let order = ref [] in
        while not (Queue.is_empty q) do
          let u = Queue.pop q in
          order := u :: !order;
          let succs =
            List.filter_map
              (fun c ->
                if
                  c.c_target >= 0 && (not c.c_cold)
                  && not nodes.(c.c_target).n_cold
                then Some c.c_target
                else None)
              nodes.(u).n_calls
            |> List.sort_uniq Int.compare
          in
          List.iter
            (fun v ->
              if not (Hashtbl.mem parent v) then begin
                Hashtbl.replace parent v u;
                Queue.push v q
              end)
            succs
        done;
        let rec chain_to u =
          match Hashtbl.find_opt parent u with
          | Some p when p >= 0 -> u :: chain_to p
          | _ -> [ u ]
        in
        List.iter
          (fun u ->
            let f = nodes.(u) in
            let kinds =
              List.sort_uniq String.compare
                (List.map (fun a -> a.a_kind) f.n_allocs)
            in
            List.iter
              (fun kind ->
                if not (Hashtbl.mem emitted (f.n_path, kind)) then begin
                  Hashtbl.replace emitted (f.n_path, kind) ();
                  let sites =
                    List.filter (fun a -> a.a_kind = kind) f.n_allocs
                  in
                  let first = List.hd sites in
                  let via =
                    if u = h.n_id then ""
                    else
                      " via "
                      ^ String.concat " -> "
                          (List.map
                             (fun id -> nodes.(id).n_path)
                             (List.tl (List.rev (chain_to u))))
                  in
                  let msg =
                    Printf.sprintf
                      "%s allocation x%d in %s reachable from [@vm1.hot] \
                       %s%s; hoist it or mark the branch [@vm1.cold]"
                      kind (List.length sites) f.n_path h.n_path via
                  in
                  out :=
                    {
                      r_rule = "hot-alloc";
                      r_file = f.n_file;
                      r_line = first.a_line;
                      r_col = first.a_col;
                      r_msg = msg;
                      r_fn = f.n_path;
                      r_prim = kind;
                      r_witness = witness_of nodes (List.rev (chain_to u));
                    }
                    :: !out
                end)
              kinds)
          (List.rev !order)
      end)
    nodes;
  List.rev !out

(* --- fingerprints and the ratchet baseline -------------------------- *)

let fingerprint_key (r : raw) ~ordinal =
  match r.r_rule with
  | "hot-alloc" ->
    String.concat "|" [ "h"; r.r_file; r.r_fn; r.r_prim ]
  | _ when r.r_witness <> [] ->
    String.concat "|" [ "i"; r.r_rule; r.r_file; r.r_fn; r.r_prim ]
  | _ ->
    String.concat "|"
      [ "l"; r.r_rule; r.r_file; r.r_fn; r.r_prim; string_of_int ordinal ]

let fingerprint_of_key key =
  String.sub (Digest.to_hex (Digest.string key)) 0 12

type baseline_entry = {
  b_rule : string;
  b_file : string;
  b_fn : string;
}

type baseline = (string * baseline_entry) list

let empty_baseline : baseline = []

let baseline_of_json j =
  match Obs.Json.member "entries" j with
  | Some (Obs.Json.List es) ->
    let entry e =
      let str k =
        match Obs.Json.member k e with
        | Some (Obs.Json.Str s) -> Some s
        | _ -> None
      in
      match (str "fingerprint", str "rule", str "file", str "function") with
      | Some fp, Some r, Some f, Some fn ->
        Some (fp, { b_rule = r; b_file = f; b_fn = fn })
      | _ -> None
    in
    let parsed = List.filter_map entry es in
    if List.length parsed = List.length es then Ok parsed
    else Error "baseline: malformed entry"
  | _ -> Error "baseline: missing entries array"

let load_baseline path =
  match
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with
  | exception Sys_error msg -> Error msg
  | s -> (
    match Obs.Json.parse s with
    | Error msg -> Error ("baseline: " ^ msg)
    | Ok j -> baseline_of_json j)

(* --- runs ----------------------------------------------------------- *)

type run = {
  files_scanned : int;
  functions : int;
  call_edges : int;
  reports : (string * report) list;
  stale : (string * baseline_entry) list;
}

let classify_raw ~sup_of ~baseline (r : raw) ~ordinal : verdict * finding =
  let fingerprint = fingerprint_of_key (fingerprint_key r ~ordinal) in
  let f =
    {
      rule = r.r_rule;
      file = r.r_file;
      line = r.r_line;
      col = r.r_col;
      message = r.r_msg;
      fn = r.r_fn;
      fingerprint;
      witness = r.r_witness;
    }
  in
  let sup = sup_of r.r_file in
  let is_suppressed =
    match sup with
    | Some sup -> suppressed sup ~rule:r.r_rule ~line:r.r_line
    | None -> false
  in
  if is_suppressed then (Suppressed, f)
  else if List.mem_assoc fingerprint baseline then (Baselined, f)
  else (Active, f)

let run_sources ?(baseline = empty_baseline) sources =
  let nodes_acc = ref [] in
  let next_id = ref 0 in
  let ctxs =
    List.map
      (fun (path, src) ->
        let sup = scan_suppressions src in
        match
          let lexbuf = Lexing.from_string src in
          Location.init lexbuf path;
          Parse.implementation lexbuf
        with
        | exception e ->
          let msg =
            match e with
            | Syntaxerr.Error _ -> "syntax error"
            | e -> Printexc.to_string e
          in
          {
            f_path = path;
            f_rel = rel_path path;
            f_sup = sup;
            f_aliases = [];
            f_locals = [];
            f_error = Some msg;
          }
        | str -> walk_file ~path ~sup ~nodes:nodes_acc ~next_id str)
      sources
  in
  let nodes = Array.of_list (List.rev !nodes_acc) in
  let call_edges = resolve_calls nodes ctxs in
  let inh = propagate nodes in
  let inter = interproc_findings nodes inh in
  let hot = hot_alloc_findings nodes in
  let sup_tbl = Hashtbl.create 16 in
  List.iter (fun c -> Hashtbl.replace sup_tbl c.f_rel c.f_sup) ctxs;
  let sup_of rel = Hashtbl.find_opt sup_tbl rel in
  (* local-finding ordinals: occurrence index per (fn, rule, prim) *)
  let ordinals = Hashtbl.create 64 in
  let ordinal_of (r : raw) =
    let key = (r.r_fn, r.r_rule, r.r_prim) in
    let k = Option.value ~default:0 (Hashtbl.find_opt ordinals key) in
    Hashtbl.replace ordinals key (k + 1);
    k
  in
  let reports =
    List.map
      (fun c ->
        let locals =
          List.map
            (fun r -> classify_raw ~sup_of ~baseline r ~ordinal:(ordinal_of r))
            c.f_locals
        in
        let of_pool pool =
          List.filter_map
            (fun r ->
              if r.r_file = c.f_rel then
                Some (classify_raw ~sup_of ~baseline r ~ordinal:0)
              else None)
            pool
        in
        ( c.f_path,
          {
            findings = locals @ of_pool inter @ of_pool hot;
            parse_error = c.f_error;
          } ))
      ctxs
  in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (_, r) ->
      List.iter
        (fun (v, f) ->
          match v with
          | Active | Baselined -> Hashtbl.replace seen f.fingerprint ()
          | Suppressed -> ())
        r.findings)
    reports;
  let stale =
    List.filter (fun (fp, _) -> not (Hashtbl.mem seen fp)) baseline
  in
  {
    files_scanned = List.length sources;
    functions = Array.length nodes;
    call_edges;
    reports;
    stale;
  }

let lint_source ?baseline ~path src =
  match (run_sources ?baseline [ (path, src) ]).reports with
  | [ (_, r) ] -> r
  | _ -> { findings = []; parse_error = Some "internal: no report" }

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let lint_file path = lint_source ~path (read_file path)

let rec ml_files_under paths =
  List.concat_map
    (fun p ->
      if Sys.is_directory p then begin
        let entries =
          List.sort String.compare (Array.to_list (Sys.readdir p))
        in
        let keep e =
          String.length e > 0 && e.[0] <> '.' && e.[0] <> '_'
        in
        entries
        |> List.filter keep
        |> List.map (Filename.concat p)
        |> List.filter (fun q ->
               Sys.is_directory q || Filename.check_suffix q ".ml")
        |> ml_files_under
      end
      else [ p ])
    paths

let run_paths ?baseline paths =
  let files = ml_files_under paths in
  run_sources ?baseline (List.map (fun f -> (f, read_file f)) files)

let count run verdict =
  List.fold_left
    (fun acc (_, r) ->
      acc
      + List.length (List.filter (fun (v, _) -> v = verdict) r.findings))
    0 run.reports

let parse_errors run =
  List.filter (fun (_, r) -> r.parse_error <> None) run.reports

let active run = count run Active + List.length (parse_errors run)

(* --- baseline emission ---------------------------------------------- *)

let baseline_entries run =
  let entries =
    List.concat_map
      (fun (_, r) ->
        List.filter_map
          (fun (v, f) ->
            match v with
            | Active | Baselined ->
              Some
                ( f.fingerprint,
                  { b_rule = f.rule; b_file = f.file; b_fn = f.fn } )
            | Suppressed -> None)
          r.findings)
      run.reports
  in
  List.sort_uniq
    (fun (a, _) (b, _) -> String.compare a b)
    entries

let baseline_json run =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str Obs.Schemas.lint_baseline);
      ( "entries",
        Obs.Json.List
          (List.map
             (fun (fp, e) ->
               Obs.Json.Obj
                 [
                   ("fingerprint", Obs.Json.Str fp);
                   ("rule", Obs.Json.Str e.b_rule);
                   ("file", Obs.Json.Str e.b_file);
                   ("function", Obs.Json.Str e.b_fn);
                 ])
             (baseline_entries run)) );
    ]

let save_baseline path run =
  let oc = open_out_bin path in
  output_string oc (Obs.Json.to_string (baseline_json run));
  output_char oc '\n';
  close_out oc

(* --- output --------------------------------------------------------- *)

let witness_json w =
  Obs.Json.List
    (List.map
       (fun (fn, file, line) ->
         Obs.Json.Obj
           [
             ("function", Obs.Json.Str fn);
             ("file", Obs.Json.Str file);
             ("line", Obs.Json.Int line);
           ])
       w)

let finding_json (f : finding) =
  Obs.Json.Obj
    ([
       ("rule", Obs.Json.Str f.rule);
       ("file", Obs.Json.Str (norm_path f.file));
       ("line", Obs.Json.Int f.line);
       ("col", Obs.Json.Int f.col);
       ("function", Obs.Json.Str f.fn);
       ("fingerprint", Obs.Json.Str f.fingerprint);
       ("message", Obs.Json.Str f.message);
     ]
    @ if f.witness = [] then [] else [ ("witness", witness_json f.witness) ])

let to_json run =
  let by_verdict v =
    Obs.Json.List
      (List.concat_map
         (fun (_, r) ->
           List.filter_map
             (fun (v', f) -> if v' = v then Some (finding_json f) else None)
             r.findings)
         run.reports)
  in
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str Obs.Schemas.lint);
      ("files_scanned", Obs.Json.Int run.files_scanned);
      ("functions", Obs.Json.Int run.functions);
      ("call_edges", Obs.Json.Int run.call_edges);
      ("active", Obs.Json.Int (active run));
      ("baselined", Obs.Json.Int (count run Baselined));
      ("findings", by_verdict Active);
      ("baselined_findings", by_verdict Baselined);
      ("suppressed", by_verdict Suppressed);
      ( "stale_baseline",
        Obs.Json.List
          (List.map
             (fun (fp, e) ->
               Obs.Json.Obj
                 [
                   ("fingerprint", Obs.Json.Str fp);
                   ("rule", Obs.Json.Str e.b_rule);
                   ("file", Obs.Json.Str e.b_file);
                   ("function", Obs.Json.Str e.b_fn);
                 ])
             run.stale) );
      ( "parse_errors",
        Obs.Json.List
          (List.map
             (fun (p, r) ->
               Obs.Json.Obj
                 [
                   ("file", Obs.Json.Str (norm_path p));
                   ( "message",
                     Obs.Json.Str (Option.value ~default:"" r.parse_error) );
                 ])
             (parse_errors run)) );
      ( "rules",
        Obs.Json.List
          (List.map
             (fun r ->
               Obs.Json.Obj
                 [
                   ("name", Obs.Json.Str r.name);
                   ("summary", Obs.Json.Str r.summary);
                 ])
             rules) );
    ]

let pp_human ?(explain = false) ppf run =
  List.iter
    (fun (path, r) ->
      (match r.parse_error with
      | Some msg -> Format.fprintf ppf "%s: cannot parse: %s@." path msg
      | None -> ());
      List.iter
        (fun (v, f) ->
          let tag =
            match v with
            | Active -> ""
            | Suppressed -> " (suppressed)"
            | Baselined -> " (baselined)"
          in
          Format.fprintf ppf "%s:%d:%d: [%s]%s %s@." f.file f.line f.col
            f.rule tag f.message;
          if explain then begin
            Format.fprintf ppf "    fingerprint %s@." f.fingerprint;
            List.iter
              (fun (fn, file, line) ->
                Format.fprintf ppf "    via %s (%s:%d)@." fn file line)
              f.witness
          end)
        r.findings)
    run.reports;
  List.iter
    (fun (fp, e) ->
      Format.fprintf ppf
        "stale baseline entry %s: [%s] %s in %s no longer fires; remove it \
         (vm1lint --update-baseline)@."
        fp e.b_rule e.b_fn e.b_file)
    run.stale;
  Format.fprintf ppf
    "vm1lint: %d files, %d functions, %d call edges, %d active, %d \
     baselined, %d suppressed, %d stale, %d parse errors@."
    run.files_scanned run.functions run.call_edges (count run Active)
    (count run Baselined) (count run Suppressed)
    (List.length run.stale)
    (List.length (parse_errors run))
