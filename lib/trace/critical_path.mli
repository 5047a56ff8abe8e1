(** Wall-clock critical path through the span forest.

    The path explains the elapsed time of the run, not the sum of work:
    when DistOpt windows or matrix cells run on several [lib/exec]
    domains at once, their spans overlap in time and only the chain that
    actually bounded the finish line appears. The walk goes backward from
    the latest span end: at each level it picks the span still running at
    the current frontier that ends last, attributes the covered interval
    to it, descends into its children for refinement, and continues from
    that span's start — so parallel siblings hiding under a longer one
    contribute nothing, which is exactly the wall-clock semantics.

    Ties (identical end then start times) break by span name, so the
    result is deterministic for a given trace file. *)

type step = {
  name : string;
  depth : int;      (** nesting depth of the span (roots are 0) *)
  start_ns : int;   (** covered interval, clipped to the path segment *)
  end_ns : int;
  self_ns : int;    (** covered time not explained by deeper steps *)
}

(** [compute t] is the path in chronological order. The sum of [self_ns]
    over all steps ([total_ns]) is at most [Model.wall_ns t], and equals
    a root's duration when the forest is that single root — gaps between
    roots (idle time) are not attributed to any step. *)
val compute : Model.t -> step list

val total_ns : step list -> int
