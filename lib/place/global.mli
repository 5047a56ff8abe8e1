(** Global placement: quadratic-style relaxation in float space
    (centroid pull with periodic rescaling to counter contraction),
    order-preserving slot assignment into rows, then a few legalised
    refinement passes. Deterministic. The result is a legal,
    locality-preserving placement — the starting point the paper obtains
    from the commercial P&R tool. *)

type config = {
  relax_passes : int;      (** legalised refinement rounds *)
  blend : float;           (** refinement step toward the centroid *)
  float_iters : int;       (** free-floating quadratic iterations *)
  reassign_rounds : int;   (** relax -> slot-assign -> legalise rounds *)
}

val default_config : config

(** [place ?config p] runs global placement in place; the result passes
    [Legalize.check].

    Each cell is pulled toward the centroids of its usable nets (non-clock,
    at least two pins). Those never change, so one [place] computes them
    once, as flat per-instance arrays in [Netlist.Design.nets_of_instance]
    order: the float sums add in that fixed order.

    Rank-based spreading sorts the cells along each axis, and cells with
    equal coordinates (the seed puts every cell of a row at the same y)
    take distinct ranks in whatever order the sort leaves them. That tie
    order is part of the result: it is [Array.sort]'s, which
    {!sort_by_key} keeps. *)
val place : ?config:config -> Placement.t -> unit

(** [sort_by_key keys order] permutes [order] (indices into [keys])
    exactly as [Array.sort (fun a b -> Float.compare keys.(a) keys.(b))
    order] does, ties, [nan] and signed zeros included. Distinct finite
    keys have only one sorted order, which a bucket sort finds in about
    linear time on spread-out keys; only keys with a tie or a non-finite
    value, where [Array.sort]'s heap sort decides the order, go to
    [Array.sort] itself. *)
val sort_by_key : float array -> int array -> unit
