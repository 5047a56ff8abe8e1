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

(** {2 Table layout}

    The evaluation state is packed int tables that {!tables} writes
    directly; the solver kernels read them with index loops and allocate
    nothing.

    - {b Candidate coordinates}: [cell.xy] holds, for candidate [k] and
      master pin [j], the pin's [ax], [x_lo], [x_hi], [y] (the fields of
      {!Align.pin_geom}, in that order) at [((k * npins) + j) * 4].
    - {b Window pins}: every pin of every window net, net by net, is one
      record of {!pin_stride} ints in [pins]: owner (the movable cell, or
      -1 when fixed), slot ([4 * j] for master pin [j]: its offset in a
      candidate block of the owner's [xy]), then its current [ax],
      [x_lo], [x_hi], [y]. A fixed pin's coordinates never change; a
      movable pin's are its owner's current candidate's, kept up to date
      by {!apply} and {!set_cur}.
    - {b Nets} in CSR (compressed sparse row) form: net [n]'s pins are
      window pins [net_start.(n)] to [net_start.(n + 1) - 1], in the
      design net's pin order; nets ascend by design id.
    - {b Pairs}: pair [q] is window pins [pair_pins.(2q)] and
      [pair_pins.(2q + 1)].
    - {b Incidence}, CSR per cell: [cell_nets] and [cell_pairs] list each
      cell's nets and pairs in descending id order (the order
      {!local_cost} sums them in), [cell_pins] its window pins.
    - {b Occupancy}: [occ] counts occupants per window site (row-major,
      [bw] sites a row); [owner] names the movable cell on each site, or
      -1.

    {b Owner-map invariant}: between plans, every site a movable cell's
    current footprint covers is [owner]ed by that cell, and every other
    site is -1. {!lift} clears only the sites the cell still owns. That
    is exact because every plan and assignment moves each cell at most
    once and ends with no overlap, so a site that another cell moved onto
    before this one left keeps its new owner. The input placement must be
    legal, as the flow's always is. *)

type cell = {
  inst : int;
  width : int;  (** sites *)
  npins : int;  (** master pins *)
  cands : candidate array;  (** index 0 is the input position *)
  xy : int array;  (** candidate pin coordinates, see the layout above *)
  lattice : int array;
  (** candidate index by (orientation group, row offset, site offset)
      from candidate 0, or -1: the ripple moves' lookup *)
  at : int array;  (** candidate -> occupancy index of its first site *)
  cand_cost : float array;
  (** static per-candidate objective penalty; used by the
      congestion-aware extension to tax candidates in hot routing tiles *)
  mutable cur : int;
}

(** Solver scratch: the kernels' float accumulator and the ripple-plan
    buffers. Private to one problem; a {!clone} gets its own. *)
type scratch = {
  acc : float array;
  plan : int array;
  mutable plan_len : int;
  kept : int array;
  mutable kept_len : int;
  saved : int array;
  ids : int array;
}

type t = {
  placement : Place.Placement.t;
  params : Params.t;
  is_open : bool;
  site_lo : int;
  row_lo : int;
  bw : int;  (** window width, sites *)
  bh : int;  (** window height, rows *)
  move_s : int;  (** candidate site offsets span [-move_s, move_s] *)
  move_r : int;  (** candidate row offsets span [-move_r, move_r] *)
  cells : cell array;
  net_weight : float array;  (** the per-net beta_n multiplier from [Params] *)
  net_start : int array;
  pins : int array;
  pair_pins : int array;
  cell_net_start : int array;
  cell_nets : int array;
  cell_pair_start : int array;
  cell_pairs : int array;
  cell_pin_start : int array;
  cell_pins : int array;
  occ : Bytes.t;  (** bw x bh per-site occupant count (fixed + movable) *)
  owner : int array;  (** bw x bh movable owner per site, or -1 *)
  fixed_occ : Bytes.t;  (** fixed blockage only *)
  scratch : scratch;
}

(** Ints per window-pin record in [pins]. *)
val pin_stride : int

(** [num_pairs t] is the number of pre-filtered pin pairs. *)
val num_pairs : t -> int

(** [row_index placement] buckets instance ids by their current row.
    Sharing one index across the windows of a batch (positions are
    stable until the batch commits) turns each window's fixed-occupancy
    scan from a full-design walk into a walk of its own rows. *)
val row_index : Place.Placement.t -> int list array

(** {2 Extraction}

    Extraction runs in two phases. The {b key phase} ({!frame}) builds
    what {!Wcache.key} reads and nothing else: fixed occupancy, every
    cell's [cands] and [cand_cost], the window nets with their weights,
    and the pin records (owner, slot, and a fixed pin's coordinates).
    The {b table phase} ({!tables}) derives everything only a solve
    reads from that: the cells' [xy], [lattice] and [at], the movable
    pins' coordinates, the pair prefilter, the incidence, [occ], [owner]
    and scratch. {!extract} is the two in sequence; a window-cache hit
    needs only the first. *)

(** A window after the key phase: a [t] whose solver tables are empty.
    Coerce it ([(f :> t)]) to read its fields or to {!commit} it; never
    hand it to a solver or an evaluation function. *)
type frame = private t

(** [frame ?candidate_cost ?rows placement params ~site_lo ~row_lo ~bw
    ~bh ~movable ~lx ~ly ~allow_flip ~allow_move] is the key phase.
    [movable] lists the instances fully inside the window; instances
    overlapping the window but not listed are treated as fixed blockage.
    [candidate_cost], when given, assigns each candidate a static
    objective penalty (e.g. congestion of its tile). [rows], when given,
    must be {!row_index} of the placement's current positions; the
    result is identical with or without it. Every cell starts at
    candidate 0. *)
val frame :
  ?candidate_cost:(site:int -> row:int -> float) ->
  ?rows:int list array ->
  Place.Placement.t -> Params.t ->
  site_lo:int -> row_lo:int -> bw:int -> bh:int ->
  movable:int list -> lx:int -> ly:int ->
  allow_flip:bool -> allow_move:bool -> frame

(** [tables f] is the table phase: the solvable problem of frame [f].
    It shares [f]'s candidates, nets and pin records (it writes the
    movable pins' coordinates into the latter, which {!Wcache.key} does
    not read), so [f] keeps its key. *)
val tables : frame -> t

(** [extract ... = tables (frame ...)], with {!frame}'s arguments. *)
val extract :
  ?candidate_cost:(site:int -> row:int -> float) ->
  ?rows:int list array ->
  Place.Placement.t -> Params.t ->
  site_lo:int -> row_lo:int -> bw:int -> bh:int ->
  movable:int list -> lx:int -> ly:int ->
  allow_flip:bool -> allow_move:bool -> t

(** [replay f a] sets every cell of frame [f] to candidate [a.(i)],
    touching nothing else: a frame has no occupancy or pin coordinates
    to keep up to date. [commit (f :> t)] then writes the candidates
    back — a window-cache hit's whole solve.
    @raise Invalid_argument on an arity mismatch. *)
val replay : frame -> int array -> unit

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

(** [apply t ~cell ~cand] moves the cell (updates occupancy, the owner
    map, its pins' coordinates and [cur]). *)
val apply : t -> cell:int -> cand:int -> unit

(** [cell_pair_gain_at t ~cell ~cand] is the summed pair gain of the
    cell's incident pairs if it sat at [cand] — used to pick which
    occupied candidates deserve a shove attempt. *)
val cell_pair_gain_at : t -> cell:int -> cand:int -> float

(** {2 Ripple moves}

    Multi-cell plans: a plan is a set of (cell, candidate) moves applied
    together. [shove_plan t ~cell ~cand] tries to make the (possibly
    occupied) candidate feasible by pushing same-row neighbours sideways
    within their own candidate sets — the coordinated moves the MILP
    finds natively. It walks the owner map outward from the target and
    stops at the first cell that does not intrude, so its cost grows
    with the plan, not the row. On success it stages the full plan
    (including the triggering move) in the problem's plan buffer and
    returns true. *)
val shove_plan : t -> cell:int -> cand:int -> bool

(** [staged_plan t] is the staged plan as a list, newest move first. *)
val staged_plan : t -> (int * int) list

(** [plan_delta t] is the objective change of applying the staged plan
    (evaluated by applying and reverting it). *)
val plan_delta : t -> float

(** [keep_plan t] saves the staged plan; [apply_kept_plan t] applies the
    saved one and returns its number of moves. *)
val keep_plan : t -> unit

val apply_kept_plan : t -> int

(** [apply_plan t plan] applies a list plan in order. *)
val apply_plan : t -> (int * int) list -> unit

(** [commit t] writes the current candidates back into the placement.
    It reads only the cells' [inst], [cands] and [cur], so a
    {!replay}ed frame commits as well. *)
val commit : t -> unit

(** Raw occupancy primitives for exhaustive search: [lift]/[drop] remove
    or add a cell's current footprint (occupancy and owner map);
    [footprint_free_at] checks a candidate against the occupancy as-is
    (no self-lifting); [set_cur] changes the chosen candidate and its
    pins' coordinates without touching occupancy. Callers must keep
    occupancy consistent themselves. *)
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

(** [clone t] is an independently-solvable copy: private cell states,
    pin coordinates, occupancy, owner map and scratch; shared immutable
    structure (candidates and their coordinates, nets, pairs, incidence,
    fixed blockage). The solver portfolio runs its
    exhaustive search on a clone; clones must never be {!commit}ted
    (they share the placement with the original). *)
val clone : t -> t
