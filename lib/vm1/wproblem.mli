(** A window subproblem of the detailed placement optimisation.

    Movable cells are those whose footprint lies fully inside the window;
    every movable cell carries its SCP candidate list — the (site, row,
    orientation) placements reachable within the perturbation range that
    stay inside the window and clear of fixed cells. Nets touching a
    movable cell contribute their full HPWL (fixed pins included, so the
    window's delta-HPWL is exact when concurrently-optimised windows have
    disjoint projections — the Fig. 4 argument). Pin pairs are
    pre-filtered to those that could satisfy the dM1 predicate under some
    candidate combination. *)

type candidate = {
  site : int;
  row : int;
  orient : Geom.Orient.t;
}

type cell = {
  inst : int;
  width : int;  (** sites *)
  cands : candidate array;  (** index 0 is the input position *)
  geoms : Align.pin_geom array array;  (** candidate -> master pin -> geometry *)
  cand_cost : float array;
  (** static per-candidate objective penalty; used by the
      congestion-aware extension to tax candidates in hot routing tiles *)
  mutable cur : int;
}

type wpin = {
  pr : Netlist.Design.pin_ref;
  owner : int;  (** movable cell index, or -1 when fixed *)
  fixed_geom : Align.pin_geom;  (** valid when [owner] = -1 *)
}

type wnet = {
  net_id : int;
  weight : float;  (** the per-net beta_n multiplier from [Params] *)
  wpins : wpin array;
}

type t = {
  placement : Place.Placement.t;
  params : Params.t;
  is_open : bool;
  site_lo : int;
  row_lo : int;
  bw : int;  (** window width, sites *)
  bh : int;  (** window height, rows *)
  cells : cell array;
  nets : wnet array;
  pairs : (wpin * wpin) array;
  cell_nets : int list array;   (** local net indices touching each cell *)
  cell_pairs : int list array;  (** pair indices touching each cell *)
  occ : Bytes.t;  (** bw x bh per-site occupant count (fixed + movable) *)
  fixed_occ : Bytes.t;  (** fixed blockage only *)
  cand_index : (int, int) Hashtbl.t array;  (** encoded candidate -> index *)
  row_cells : int list array;
  (** window row -> the cells with any candidate in that row, ascending;
      immutable, and a superset of the cells currently in the row *)
}

(** [row_index placement] buckets instance ids by their current row.
    Sharing one index across the windows of a batch (positions are
    stable until the batch commits) turns each window's fixed-occupancy
    scan from a full-design walk into a walk of its own rows. *)
val row_index : Place.Placement.t -> int list array

(** [extract ?candidate_cost ?rows placement params ~site_lo ~row_lo ~bw
    ~bh ~movable ~lx ~ly ~allow_flip ~allow_move] builds the subproblem.
    [movable] lists the instances fully inside the window; instances
    overlapping the window but not listed are treated as fixed blockage.
    [candidate_cost], when given, assigns each candidate a static
    objective penalty (e.g. congestion of its tile). [rows], when given,
    must be {!row_index} of the placement's current positions; the
    resulting problem is identical with or without it. *)
val extract :
  ?candidate_cost:(site:int -> row:int -> float) ->
  ?rows:int list array ->
  Place.Placement.t -> Params.t ->
  site_lo:int -> row_lo:int -> bw:int -> bh:int ->
  movable:int list -> lx:int -> ly:int ->
  allow_flip:bool -> allow_move:bool -> t

(** [pin_geom t wp] is the pin's geometry in the problem's current state. *)
val pin_geom : t -> wpin -> Align.pin_geom

(** [objective t] is the window-local objective:
    beta * sum HPWL(nets) - sum pair_gain(pairs). *)
val objective : t -> float

(** Window-local QoR counts at the problem's current assignment: summed
    HPWL over the window's nets (fixed pins included, so deltas are exact
    for diagonally-independent windows), satisfied dM1 pairs and the
    OpenM1 overlap sum — the per-window attribution data behind
    [vm1trace attribute]. *)
type qor = {
  hpwl_dbu : int;
  alignments : int;
  overlap_sum : int;
}

val qor : t -> qor

(** [candidate_free t ~cell ~cand] checks the candidate footprint against
    the occupancy map, ignoring the cell's own current footprint. *)
val candidate_free : t -> cell:int -> cand:int -> bool

(** [local_cost t ~cell ~cand] is the part of the objective [cell]
    influences if it sat at [cand] (its candidate penalty, its nets'
    weighted HPWL, minus its pairs' gain), everything else at its
    current position. [move_delta] is the difference of two of these;
    solvers scanning a cell's whole candidate list hoist the [cur] term
    out of the loop. *)
val local_cost : t -> cell:int -> cand:int -> float

(** [move_delta t ~cell ~cand] is the objective change if [cell] moved to
    [cand] with everything else at its current position. *)
val move_delta : t -> cell:int -> cand:int -> float

(** [apply t ~cell ~cand] moves the cell (updates occupancy and [cur]). *)
val apply : t -> cell:int -> cand:int -> unit

(** Multi-cell plans (ripple moves): a plan is a list of (cell, candidate)
    moves applied together. [shove_plan t ~cell ~cand] tries to make the
    (possibly occupied) candidate feasible by pushing same-row neighbours
    sideways within their own candidate sets — the coordinated moves the
    MILP finds natively. Returns the full plan (including the triggering
    move) or [None]. *)
val shove_plan : t -> cell:int -> cand:int -> (int * int) list option

(** [plan_delta t plan] is the objective change of applying the plan
    (evaluated by applying and reverting). *)
val plan_delta : t -> (int * int) list -> float

val apply_plan : t -> (int * int) list -> unit

(** [cell_pair_gain_at t ~cell ~cand] is the summed pair gain of the
    cell's incident pairs if it sat at [cand] — used to pick which
    occupied candidates deserve a shove attempt. *)
val cell_pair_gain_at : t -> cell:int -> cand:int -> float

(** [commit t] writes the current candidates back into the placement. *)
val commit : t -> unit

(** Raw occupancy primitives for exhaustive search: [lift]/[drop] remove
    or add a cell's current footprint; [footprint_free_at] checks a
    candidate against the occupancy as-is (no self-lifting); [set_cur]
    changes the chosen candidate without touching occupancy. Callers must
    keep occupancy consistent themselves. *)
val lift : t -> cell:int -> unit

val drop : t -> cell:int -> unit
val footprint_free_at : t -> cell:int -> cand:int -> bool
val set_cur : t -> cell:int -> cand:int -> unit

(** [assignment t] is the current candidate index of every cell — the
    window's solution vector. Candidate indices are translation-
    invariant (candidate generation order depends only on window-local
    geometry), which is what lets the memo-cache replay an assignment
    into any canonically-equal problem. *)
val assignment : t -> int array

(** [set_assignment t a] moves every cell to candidate [a.(i)] through
    {!apply}, keeping occupancy consistent.
    @raise Invalid_argument on an arity mismatch. *)
val set_assignment : t -> int array -> unit

(** [clone t] is an independently-solvable copy: private cell states and
    occupancy, shared immutable structure (candidates, geometries, nets,
    pairs, fixed blockage, row index). The solver portfolio runs its
    exhaustive search on a clone; clones must never be {!commit}ted
    (they share the placement with the original). *)
val clone : t -> t
