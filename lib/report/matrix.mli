(** The experiment matrix: sweep a benchmark manifest through the full
    flow and report QoR per cell ([vm1dp-expt-matrix/1]).

    A manifest's generator entries are crossed with every
    arch/utilisation/scale combination of its axes; external DEF entries
    contribute one cell each (their placement — and so their axes — are
    fixed by the file). Both are crossed with the manifest's [params]
    sets, when it has any. Every cell reports the Table-2 flow, as
    [vm1opt] runs it: the initial routed placement's evaluation, then
    VM1Opt with the greedy window solver, the re-route and the
    evaluation again — with the cell's alpha, optimisation sequence,
    router layer count and switches (dM1 routing, row DP, congestion
    term).

    Cells that share a placement source and the switches that act
    before VM1Opt (row DP, router layers, [use_dm1]) form a group, and
    a group shares one {!Flow.master}: one placement and one baseline
    route. The alpha, sequence and congestion-term switches do not
    split groups, since the baseline never reads them. So [run] takes
    two {!Exec.parallel_map} phases. Phase 1 builds each group's master
    ({!Flow.master}), and, for a group with a congestion-term cell,
    the congestion map of the baseline route, which it then drops.
    Phase 2 runs each cell as {!Flow.optimise} on a
    [Place.Placement.copy] of its group's master. A sweep over alpha or
    sequence thus places and routes its baseline once, and every cell
    reports the numbers it would report alone.

    Cells are the unit of parallelism: the in-cell optimiser runs
    sequentially. The report — including its JSON form — is
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
