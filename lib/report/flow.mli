(** The end-to-end flow: generate -> place -> route -> evaluate ->
    optimise -> re-route -> evaluate. One [eval] carries every column of
    the paper's Table 2. *)

type eval = {
  dm1 : int;
  m1_wl_um : float;
  via12 : int;
  hpwl_um : float;
  rwl_um : float;
  wns_ns : float;
  power_mw : float;
  drvs : int;
  alignments : int;  (** placement-level potential dM1 pairs *)
}

(** [prepare ?scale ?utilization ?detailed name arch] generates the named
    design and produces a legal placement: global placement followed (by
    default) by HPWL-driven row-DP detailed placement, standing in for
    the converged commercial flow the paper starts from. Defaults: scale
    8, utilisation 0.75, detailed true. *)
val prepare :
  ?scale:int -> ?utilization:float -> ?detailed:bool ->
  Netlist.Designs.name -> Pdk.Cell_arch.t -> Place.Placement.t

(** [prepare_placement ?utilization ?detailed design] is the placement
    half of {!prepare} for an already-generated design — the entry the
    batch service uses so one cached netlist can seed many jobs. The
    result for a given design is identical to what {!prepare} would
    produce for the same inputs. *)
val prepare_placement :
  ?utilization:float -> ?detailed:bool -> Netlist.Design.t ->
  Place.Placement.t

(** [evaluate ?clock_ps ?router_config params p] routes the placement and
    computes all metrics. Pass the [clock_ps] captured from the initial
    evaluation when evaluating the optimised placement, so WNS is
    comparable. Returns the evaluation and the clock period used. *)
val evaluate :
  ?clock_ps:float -> ?router_config:Route.Router.config ->
  Vm1.Params.t -> Place.Placement.t -> eval * float

(** The initial placement's evaluation: Table 2's [init] columns and
    the clock period the optimised placement is timed against. *)
type baseline = {
  init : eval;
  clock_ps : float;
}

(** [baseline ?router_config params p] is [evaluate ?router_config params
    p] as a {!baseline}, together with the route it measured — so a
    caller that needs the initial route ({!congestion_cost}) does not
    route [p] a second time. *)
val baseline :
  ?router_config:Route.Router.config -> Vm1.Params.t -> Place.Placement.t ->
  baseline * Route.Router.result

(** A prepared placement with its {!baseline}, shared by every params
    set the matrix or [vm1d] runs on it. *)
type master = {
  placement : Place.Placement.t;  (** shared: copy before mutating *)
  baseline : baseline;
}

(** [master ?router_config p] is [p] with its {!baseline} under
    [Vm1.Params.default], and the route it measured. That baseline is
    every params set's [init]: it reads the parameters only through
    [Vm1.Objective.counts], which alpha, sequence and solver never
    change. *)
val master :
  ?router_config:Route.Router.config -> Place.Placement.t ->
  master * Route.Router.result

type comparison = {
  design_name : string;
  instances : int;
  alpha : float;
  init : eval;
  final : eval;
  opt_runtime_s : float;
}

(** [optimise ?router_config ?config params b p] is the second half of
    the Table-2 experiment: run VM1Opt on [p] in place, re-route and
    evaluate it against [b]'s clock. [b] must be [p]'s {!baseline}. *)
val optimise :
  ?router_config:Route.Router.config -> ?config:Vm1.Vm1_opt.config ->
  Vm1.Params.t -> baseline -> Place.Placement.t -> comparison

(** [run_comparison ?router_config ?config ?params p] is the Table-2
    experiment on a prepared placement: {!baseline}, then {!optimise}.
    [router_config] applies to both routes; [params] defaults to
    {!Vm1.Params.default} for [p]'s technology. *)
val run_comparison :
  ?router_config:Route.Router.config -> ?config:Vm1.Vm1_opt.config ->
  ?params:Vm1.Params.t -> Place.Placement.t -> comparison

(** [delta_pct a b] is the relative change from [a] to [b] in percent. *)
val delta_pct : float -> float -> float

(** [timing_driven_params ?boost params p] routes the placement, computes
    per-net STA criticality and returns [params] with net weights
    [1 + boost * criticality^2] — the paper's future-work extension (ii)
    to the objective. *)
val timing_driven_params :
  ?boost:float -> Vm1.Params.t -> Place.Placement.t -> Vm1.Params.t

(** [congestion_cost ?weight ?threshold r] builds the tile congestion
    map of the route [r] (typically the one {!baseline} returns) and
    returns the per-candidate penalty function for
    [Vm1.Vm1_opt.config.candidate_cost] — the congestion-aware objective
    extension. Tiles above [threshold] usage/capacity are taxed
    proportionally. *)
val congestion_cost :
  ?weight:float -> ?threshold:float -> Route.Router.result ->
  site:int -> row:int -> float
