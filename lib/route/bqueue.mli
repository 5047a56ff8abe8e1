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

    Internals: entries live in one pooled linked list — a single int
    array of [(value, next)] pairs, handed out in push order and reset
    wholesale by [clear] — and each bucket is a [(head, tail)] pair of
    entry indices in a second int array indexed by [prio - origin]
    ([origin] latches on the first push after a clear). A push appends
    at its bucket's tail, a pop unlinks the head, so ties stay FIFO
    without a per-bucket array to allocate, grow or chase. A
    one-bit-per-bucket occupancy bitmap marks the non-empty buckets (a
    clear bit is what makes a bucket's ends dead), lets the pop scan
    skip 63 empty buckets per word, and is all [clear] resets: the
    span between the cursor and the highest pushed bucket. *)

type t

(** [create ?capacity ()] allocates a queue with room for [capacity]
    buckets and [capacity] entries (default 1024); both grow on
    demand. *)
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

(** [clear t] empties the queue in time proportional to the bucket span
    it occupied (one bitmap word per 63 buckets), keeping allocations. *)
val clear : t -> unit
