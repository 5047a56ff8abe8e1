(** Bucket ("dial") priority queue of integer payloads keyed by integer
    priority, for the A* open list.

    Router edge costs are small bounded integers (track pitch + layer
    surcharge + congestion penalty), so consecutive pop priorities move
    through a narrow, mostly increasing band. A bucket per priority with
    a cursor that only scans forward makes push and pop O(1) amortised —
    no comparisons, no sifting — which is why it replaces a binary heap
    on the router hot path (the test suite keeps one as the reference
    ordering this queue is property-tested against).

    The structure is exact, not merely monotone: a push below the last
    popped priority moves the cursor back, so pops always return the
    current minimum even under the slightly non-monotone priorities of
    weighted A* (where the inflated heuristic can make a successor's
    f-value dip below its parent's by a bounded amount). Ties pop in
    FIFO order within a bucket, so equal-cost nodes expand in the order
    discovered — the stable ordering routing quality was tuned against.

    Internals: a growable array of per-priority buckets indexed by
    [prio - origin] ([origin] latches on the first push after a clear),
    a one-bit-per-bucket occupancy bitmap so the pop scan skips 63 empty
    buckets per word, and a touched-bucket list so [clear] is
    proportional to the buckets used, not the priority range. *)

type t

(** [create ?capacity ()] allocates a queue with [capacity] initial
    buckets (default 1024); the bucket range grows on demand. *)
val create : ?capacity:int -> unit -> t

val is_empty : t -> bool

(** Number of queued entries. *)
val size : t -> int

(** Total pushes since creation (monotone; survives [clear]). *)
val pushes : t -> int

(** [prepare t ~origin] latches the priority mapped to bucket 0 of an
    empty, just-cleared queue. A caller that knows a lower bound on
    every priority it will push avoids the below-origin reallocation
    entirely — the dominant cost when seeds arrive in arbitrary
    priority order. Pushes below [origin] remain correct (they
    reallocate). No-op once a push or an earlier [prepare] has latched
    the origin. *)
val prepare : t -> origin:int -> unit

val push : t -> prio:int -> value:int -> unit

(** [pop t] removes and returns the value queued at the smallest
    priority; ties within a priority pop FIFO. The priority it was
    queued at is readable as {!last_prio} until the next pop — split
    off the return value so the A* pop loop allocates no pair.
    @raise Invalid_argument on an empty queue. *)
val pop : t -> int

(** Priority of the most recently popped entry (0 before any pop). *)
val last_prio : t -> int

(** [clear t] empties the queue in time proportional to the number of
    buckets touched since the previous clear, keeping allocations. *)
val clear : t -> unit
