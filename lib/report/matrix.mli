(** The experiment matrix: sweep a benchmark manifest through the full
    flow and report QoR per cell ([vm1dp-expt-matrix/1]).

    A manifest's generator entries are crossed with every
    arch/utilisation/scale combination of its axes; external DEF entries
    contribute one cell each (their placement — and so their axes — are
    fixed by the file). Both are crossed with the manifest's [params]
    sets, when it has any. Every cell runs the Table-2 flow, as
    [vm1opt] does: {!Flow.baseline} evaluates the initial routed
    placement, then {!Flow.optimise} runs VM1Opt with the greedy window
    solver, re-routes and evaluates again — with the cell's alpha,
    optimisation sequence, router layer count and switches (dM1
    routing, row DP, congestion term). A congestion-term cell builds its
    congestion map from the baseline's route, so it routes twice, not
    three times.

    Cells are distributed over the exec pool ({!Exec.parallel_map}),
    with the in-cell optimiser forced sequential so the cell grid is the
    unit of parallelism; the report — including its JSON form — is
    byte-identical for every [--jobs] setting (the [@matrix-smoke] gate
    diffs it against a committed golden at jobs 1, 2 and 4). *)

(** A manifest params set with every omitted field resolved to its
    default for the cell's architecture. *)
type params = {
  p_id : string;
  alpha : float;
  sequence : Vm1.Params.step list;
  router_layers : int;
  use_dm1 : bool;          (** router may use direct vertical M1 *)
  row_dp : bool;           (** HPWL row DP after global placement *)
  congestion_term : bool;  (** VM1Opt taxes hot-tile candidates *)
}

type cell = {
  cell_id : string;
      (** e.g. ["m0/closedm1/u0.70/s48"], ["smoke/ext"]; with params,
          suffixed by the set's id (["aes/closedm1/u0.75/s16/a800"]) *)
  design_name : string;
  arch : Pdk.Cell_arch.t;
  util : float option;   (** [None] for external cells *)
  scale : int option;    (** [None] for external cells *)
  params : params option;  (** [None] when the manifest has no params *)
  instances : int;
  init : Flow.eval;
  final : Flow.eval;
  opt_runtime_s : float;  (** VM1Opt wall-clock; rendered, never in JSON *)
}

type report = {
  manifest_name : string;
  manifest_digest : string;  (** {!Io.Manifest.digest} of the input *)
  cells : cell list;
      (** entry-major, then arch/util/scale/params order *)
}

(** [run m] sweeps the manifest. [Error] carries the first failing
    cell's diagnostic (unreadable or unbindable external DEF/LEF). *)
val run : Io.Manifest.t -> (report, string) result

(** No timing fields: the JSON is a pure function of the manifest. *)
val to_json : report -> Obs.Json.t

val render : report -> string
