(** [vm1lint] v2: a two-phase, whole-repo determinism and allocation
    analyzer over this repository's own OCaml sources, enforcing the
    contract that keeps the flow byte-identical across [--jobs] (see
    ARCHITECTURE.md, "Invariants and how they are enforced").

    Phase 1 parses each [.ml] file with [compiler-libs] and walks the
    Parsetree, building a call graph whose nodes are the named functions
    (any nesting depth, module path included — e.g. [Router.search.run])
    with per-function summaries: determinism taints introduced directly
    (wall-clock / environment / global-random reads, unsorted [Hashtbl]
    iteration, [Domain]/[Atomic] primitives), allocation sites (tuples,
    records, variants, closures, arrays, a curated table of allocating
    stdlib calls), outgoing calls, and the [@vm1.hot] / [@vm1.cold]
    annotations. Phase 2 resolves calls across files and propagates
    taints to fixpoint — a clock read three helpers deep flags the
    pure-library caller, with the full call chain as a witness — and
    reports allocation sites reachable from every [@vm1.hot] function
    ([@vm1.cold] on a binding or expression prunes amortized branches,
    e.g. a doubling realloc, from the walk).

    The analysis is syntactic (no typechecking): call resolution is a
    best-effort over module paths, [module M = Make (...)] aliases,
    library-wrapper prefixes ([Route.Bqueue.pop] = [Bqueue.pop]) and
    lexical scope, and resolves ambiguity to nothing rather than
    guessing. Named local functions are graph nodes, not closure
    allocations; anonymous [fun] is an allocation at its occurrence.
    Argument subtrees of [raise]/[failwith]/[invalid_arg]/[assert] are
    exempt from allocation accounting (error paths are not hot).

    Suppression comments ([(* vm1lint: allow RULE *)], [allow-line],
    [allow-next]) work as in v1 and also stop a primitive's taint from
    propagating. Every finding
    carries a stable {e fingerprint}; the committed ratchet baseline
    ([lint_baseline.json], schema [vm1dp-lint-baseline/1]) downgrades
    known-debt fingerprints to {!Baselined} so [@lint] fails only on
    {e new} findings, while {!run.stale} lists baseline entries that no
    longer fire (so fixing debt must shrink the baseline). *)

type rule = {
  name : string;      (** kebab-case rule id, used in suppressions *)
  summary : string;   (** one-line description of the invariant *)
}

(** The rules, in reporting order. *)
val rules : rule list

type finding = {
  rule : string;
  file : string;  (** normalized (backslashes, [./], [../] stripped) *)
  line : int;     (** 1-based *)
  col : int;      (** 0-based, matching compiler conventions *)
  message : string;
  fn : string;    (** containing function path, e.g. [Router.search.run];
                      for interprocedural findings, the flagged caller *)
  fingerprint : string;
      (** stable 12-hex-digit identity used by the ratchet baseline:
          local findings key on (rule, file, function, primitive,
          occurrence ordinal); interprocedural findings on (rule, file,
          function, sink primitive); hot-alloc findings on (file,
          function, allocation kind) — so moving a line does not churn
          the baseline, but a new offender does *)
  witness : (string * string * int) list;
      (** the taint chain as (function, file, line), from the flagged
          function down to the one containing the primitive; [[]] for
          local findings *)
}

type verdict =
  | Active      (** counts against the lint *)
  | Suppressed  (** silenced by a [vm1lint: allow*] comment *)
  | Baselined   (** known debt: fingerprint in the ratchet baseline *)

type report = {
  findings : (verdict * finding) list;
      (** local findings in source order, then interprocedural findings
          in definition order, then hot-alloc findings *)
  parse_error : string option;
      (** a file that does not parse is itself a finding *)
}

(** {1 The ratchet baseline} *)

type baseline_entry = {
  b_rule : string;
  b_file : string;
  b_fn : string;
}

(** Fingerprint-keyed known debt, as loaded from [lint_baseline.json]. *)
type baseline = (string * baseline_entry) list

val empty_baseline : baseline

(** [load_baseline path] reads a [vm1dp-lint-baseline/1] file. *)
val load_baseline : string -> (baseline, string) result

(** {1 Running the analyzer} *)

type run = {
  files_scanned : int;
  functions : int;   (** call-graph nodes *)
  call_edges : int;  (** resolved call edges *)
  reports : (string * report) list;  (** per file, in scan order *)
  stale : (string * baseline_entry) list;
      (** baseline entries whose fingerprint no longer fires *)
}

(** [save_baseline path run] writes the run's Active + Baselined
    findings as the new baseline (the [--update-baseline] flow). *)
val save_baseline : string -> run -> unit

(** The baseline document for [run], schema [vm1dp-lint-baseline/1]. *)
val baseline_json : run -> Obs.Json.t

(** The Active + Baselined findings of [run] as baseline entries,
    sorted by fingerprint (what {!save_baseline} writes). *)
val baseline_entries : run -> baseline

(** [count run v] is the number of findings with verdict [v]. *)
val count : run -> verdict -> int

(** [run_sources sources] analyzes in-memory [(path, source)] pairs as
    one program — the test seam for multi-file taint fixtures. *)
val run_sources : ?baseline:baseline -> (string * string) list -> run

(** [lint_source ~path src] analyzes a single source buffer (calls
    within the file still propagate interprocedurally). *)
val lint_source : ?baseline:baseline -> path:string -> string -> report

(** [lint_file path] reads and lints one file. *)
val lint_file : string -> report

(** [ml_files_under paths] expands each path: a directory becomes all
    [.ml] files under it (recursively, sorted, [_build] and dot-dirs
    skipped); a file is kept as-is. *)
val ml_files_under : string list -> string list

val run_paths : ?baseline:baseline -> string list -> run

(** [active run] is the number of active (unsuppressed, unbaselined)
    findings plus parse errors — the count that must be zero for
    [@lint] to pass. *)
val active : run -> int

(** [to_json run] is the machine-readable report, schema
    [vm1dp-lint/2] (documented in README, "Static analysis"). *)
val to_json : run -> Obs.Json.t

(** [pp_human ppf run] renders the human report: one line per finding
    (with fingerprint + witness chain when [explain]), stale-baseline
    notices, then a summary. *)
val pp_human : ?explain:bool -> Format.formatter -> run -> unit
