(** Content-keyed caches for the immutable cross-job artifacts of the
    batch service.

    Every one-shot run of the flow pays start-up costs that do not
    depend on anything a job may mutate: generating the standard-cell
    library of an architecture, generating a netlist, computing the
    converged input placement the optimiser starts from together with
    its routed baseline evaluation (Table 2's [init] columns). A cache
    holds each of these keyed by the parameters that determine its
    content, so a daemon serving many jobs pays them once. The baseline
    is a property of the input placement alone — a job's [alpha],
    [sequence] and solver act only on the optimised placement — so it
    lives in the same entry as its placement: a {!Report.Flow.master},
    the type the experiment matrix shares its placements through too.
    The baseline's route is not kept, and neither is any routing grid:
    a job builds its grid from scratch, which is faster than copying a
    cached blockage array and keeps no grid-sized memory per die.

    The soundness argument has two halves, and both are load-bearing:

    - {b Cached artifacts are immutable.} Jobs never write into a
      design or a library, and the cached placement is a
      master copy that jobs duplicate ([Place.Placement.copy]) before
      touching. The per-job mutable state starts at the copy.
    - {b Generation is deterministic.} Every generator behind a cache
      is a pure function of the key, so a hit returns exactly what a
      miss would have computed — cold, warm and interleaved service are
      byte-identical (checked by the "cold=warm bytes" and baseline
      reuse cases of [test/test_serve.ml]).

    A cache is confined to the domain that owns it: the daemon resolves
    artifacts on the submitting thread {e before} a job fans out to the
    pool, which is what keeps this module free of locks (and of the
    [domain-prims] lint rule). A miss computes its artifact, the
    baseline route included, on that thread too. Hits and misses are
    counted both per store ({!stats}) and in the [serve.cache_hits] /
    [serve.cache_misses] observability counters. *)

type t

(** Whether a lookup was served from the store. *)
type outcome = Hit | Miss

(** Raised internally when an external DEF fails binding or the
    legality oracle; {!external_placement} catches it and returns the
    message as [Error] — it never escapes this module. *)
exception Rejected of string

val create : unit -> t

(** [library t arch] is the generated standard-cell library for [arch],
    keyed by the architecture name. *)
val library : t -> Pdk.Cell_arch.t -> Pdk.Libgen.t * outcome

(** [netlist t ~lib ~name ~arch ~scale] is the generated design, keyed
    by (design name, architecture, scale) — the design seed is a fixed
    function of the name, so the key covers everything the generator
    reads. [lib] (from {!library}, same [arch]) is used only on a miss;
    passing the dependency in keeps each store's hit/miss tally at
    exactly one count per job. *)
val netlist :
  t -> lib:Pdk.Libgen.t -> name:Netlist.Designs.name ->
  arch:Pdk.Cell_arch.t -> scale:int -> Netlist.Design.t * outcome

(** [placement t ~design ~name ~arch ~scale ~utilization] is the
    prepared input placement ([Report.Flow.prepare_placement]: global
    place + row-DP baseline) with its baseline evaluation, keyed by the
    netlist key plus the utilisation. [design] (from {!netlist}, same
    key fields) is used only on a miss. The returned placement is the
    shared master — callers must [Place.Placement.copy] it and never
    mutate it. *)
val placement :
  t -> design:Netlist.Design.t -> name:Netlist.Designs.name ->
  arch:Pdk.Cell_arch.t -> scale:int -> utilization:float ->
  Report.Flow.master * outcome

(** [external_placement t ~lib ~arch ~def_text] is the placement of an
    external-DEF job, keyed by (architecture, MD5 of the DEF text): the
    text is ingested through [Io.Def.read] against [lib] (from
    {!library}, same [arch]), mapped onto a placement and checked by
    the legality oracle ([Place.Legalize.check]), then evaluated for
    its baseline. [Error] — a parse, binding or legality failure, as a
    human-readable string — is the client's fault ([bad_request] on the
    wire) and is never cached: a rejected DEF counts as a miss and
    re-validates on every submission. The returned placement is a
    shared master — callers must [Place.Placement.copy] it and never
    mutate it. *)
val external_placement :
  t -> lib:Pdk.Libgen.t -> arch:Pdk.Cell_arch.t -> def_text:string ->
  (Report.Flow.master * outcome, string) Stdlib.result

(** [stats t] is [(store, hits, misses)] per artifact store, in a fixed
    order: [external], [library], [netlist], [placement]. *)
val stats : t -> (string * int * int) list
