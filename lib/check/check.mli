(** Flow sanitizer: stage-boundary oracles that re-verify each substrate's
    output independently of the code that produced it (the paper only
    compares legal placements, so every QoR claim rests on these
    invariants). Each oracle returns human-readable problem descriptions;
    an empty list means the stage output is sound. [vm1opt --check] runs
    {!flow}; the DRC tool and the negative-path tests call the oracles
    directly. See ARCHITECTURE.md, "Invariants and how they are
    enforced". *)

(** [design d] wraps [Netlist.Design.validate]: dangling pin references,
    out-of-range net ids, nets with duplicate pins. *)
val design : Netlist.Design.t -> string list

(** [placement p] re-verifies placement legality from scratch: every
    instance on the site and row grid, inside the die, and no two
    instances overlapping (independent row-sweep, not
    [Place.Placement.overlap_count]). *)
val placement : Place.Placement.t -> string list

(** [windows p ~tx ~ty ~bw ~bh] re-runs the window partition and checks
    Algorithm 2's correctness precondition: every movable instance lies
    fully inside its window, no instance is movable in two windows, and
    each diagonal batch has pairwise-disjoint site spans and row spans
    (disjoint x/y projections — the condition under which window
    delta-HPWLs add exactly and windows may solve in parallel). *)
val windows :
  Place.Placement.t -> tx:int -> ty:int -> bw:int -> bh:int -> string list

(** [objective_counts params p c] recomputes HPWL, weighted HPWL,
    alignment and overlap counts directly from pin positions (own pair
    enumeration, not [Vm1.Objective.counts]) and compares with [c]. *)
val objective_counts :
  Vm1.Params.t -> Place.Placement.t -> Vm1.Objective.counts -> string list

(** [milp_solution wp sol] rebuilds the window's MILP with
    [Vm1.Formulate.build] and re-verifies the branch-and-bound assignment
    against every constraint, bound and integrality marker
    ([Milp.Model.check]). Infeasible solutions are not checked. *)
val milp_solution : Vm1.Wproblem.t -> Milp.Bnb.solution -> string list

(** [route_result r] re-verifies a routing result against its grid:

    - usage replay: wire/via usage recomputed from the stored paths must
      equal the grid's usage arrays;
    - ownership: no committed wire edge on a blocked track or a track
      reserved for another net;
    - overflow count: the O(1) [Grid.overflow_count] must equal the
      full-scan oracle and the replayed count;
    - failed-subnet accounting: the recount must equal
      [r.failed_subnets];
    - connectivity: for every fully-routed net, all pins lie in one
      connected component of the committed edges (pins sharing an access
      node count as connected, matching the router's empty-path case). *)
val route_result : Route.Router.result -> string list

type finding = {
  oracle : string;        (** oracle name, e.g. ["placement"] *)
  problems : string list; (** empty = passed *)
}

(** [flow params p] runs the whole sanitizer on a placed design: design
    and placement oracles, window partition (first step of the default
    sequence), objective recount, a routing run (route oracle), and the
    MILP feasibility re-verification on a small extracted window (with
    [Vm1.Formulate.verify] set for the solve). Returns one finding per
    oracle, in run order. *)
val flow : Vm1.Params.t -> Place.Placement.t -> finding list

(** [ok findings] is true when every oracle passed. *)
val ok : finding list -> bool

(** [pp_findings ppf findings] renders one line per oracle plus each
    problem indented. *)
val pp_findings : Format.formatter -> finding list -> unit
