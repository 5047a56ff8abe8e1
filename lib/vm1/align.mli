(** Pin-pair geometry predicates for direct vertical M1 routing: exact
    vertical alignment for ClosedM1 (the d_pq of constraint (4)) and
    x-projection overlap for OpenM1 (the d_pq / o_pq of constraints
    (11)-(14)). Shared by the global objective, the window solvers and the
    MILP formulation. *)

type pin_geom = {
  ax : int;    (** alignment x: centre of the pin's M1 track (ClosedM1) *)
  x_lo : int;  (** left edge of the pin's x-projection *)
  x_hi : int;  (** right edge of the pin's x-projection *)
  y : int;     (** pin y (bounding-box centre) *)
}

(** [of_placed p pr] is the geometry of pin [pr] at its current placement. *)
val of_placed : Place.Placement.t -> Netlist.Design.pin_ref -> pin_geom

(** [of_candidate p pr ~site ~row ~orient] is the geometry the pin would
    have if its owner cell were placed at (site, row) with [orient]. *)
val of_candidate :
  Place.Placement.t -> Netlist.Design.pin_ref ->
  site:int -> row:int -> orient:Geom.Orient.t -> pin_geom

(** [aligned params tech a b] — ClosedM1 d_pq: same M1 track and vertical
    distance within [closed_gamma] row heights. *)
val aligned : Params.t -> Pdk.Tech.t -> pin_geom -> pin_geom -> bool

(** [overlap params tech a b] — OpenM1: [(d_pq, o_pq)]. [d_pq] is true
    when the x-projections overlap by at least delta and the pins are
    within gamma row heights vertically; [o_pq] is the overlap length
    beyond delta (0 when [d_pq] is false). *)
val overlap : Params.t -> Pdk.Tech.t -> pin_geom -> pin_geom -> bool * int

(** [pair_gain params tech a b] is the objective credit of the pair:
    [alpha * d_pq + epsilon * o_pq] using the architecture's own
    predicate. *)
val pair_gain : Params.t -> Pdk.Tech.t -> pin_geom -> pin_geom -> float

(** {2 On raw coordinates}

    The same predicates on coordinates instead of records — the
    definitions the record forms above delegate to, and what the window
    solver's packed tables feed. *)

(** [aligned_xy] is {!aligned} on the two pins' [ax] and [y]. *)
val aligned_xy :
  Params.t -> Pdk.Tech.t -> ax1:int -> y1:int -> ax2:int -> y2:int -> bool

(** [overlap_xy] is [o_pq] when {!overlap}'s [d_pq] holds, and [-1] when
    it does not. *)
val overlap_xy :
  Params.t -> Pdk.Tech.t ->
  lo1:int -> hi1:int -> y1:int -> lo2:int -> hi2:int -> y2:int -> int

(** [open_gain params o] is the OpenM1 credit [alpha * d_pq + epsilon *
    o_pq] of a pair whose {!overlap_xy} is [o]. *)
val open_gain : Params.t -> int -> float

(** [closed_gain params d] is the ClosedM1 credit [alpha * d_pq]. *)
val closed_gain : Params.t -> bool -> float
