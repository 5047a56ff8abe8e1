(** Capacity-aware detailed router.

    Every signal net is decomposed into 2-pin subnets by a Manhattan
    minimum spanning tree over its pin positions; subnets are routed with
    multi-source A* over the track grid (sources include the net's
    already-routed nodes, so routes reuse the growing tree). Costs are
    wirelength plus via cost plus a congestion penalty on overfull edges;
    rip-up-and-reroute passes with escalating penalty resolve overflow.

    Because A* is cost-optimal and a direct vertical M1 route is the
    cheapest possible connection (no vias onto M2, shortest length), the
    router exploits dM1 opportunities exactly when the placement makes
    them feasible — the behaviour the paper relies on from its commercial
    router. Set [use_dm1 = false] to forbid M1 inter-row routing and
    measure the ablation. *)

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
module Bqueue : sig
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
end

type config = {
  ripup_passes : int;      (** max rip-up-and-reroute passes after the
                               initial routing pass *)
  search_margin : int;     (** A* window margin around the subnet bbox, tracks *)
  use_dm1 : bool;          (** when false, M1 edges crossing row boundaries
                               are treated as blocked *)
  layers : int;            (** metal layers available to the router, 2..6 *)
  shard_tracks : int;      (** tile side, in tracks, for the tiled
                               initial pass (clamped to >= 8). The tiling
                               is a fixed function of the grid *)
}

val default_config : config

type edge =
  | Wire of int  (** wire edge at node n: n -- successor in pref. dir. *)
  | Via of int   (** via edge at node n: n -- same (i,j) one layer up *)

(** [edge_of_code c] decodes one element of a [path] array: paths are
    stored packed (node index shifted left one, low bit set for vias),
    which halves the memory of an [edge list] and removes pointer
    chasing from commit/uncommit/metrics loops. *)
val edge_of_code : int -> edge

type subnet = {
  src : Netlist.Design.pin_ref;     (** pin at the MST edge's source *)
  dst : Netlist.Design.pin_ref;     (** pin at the MST edge's sink *)
  mutable path : int array;         (** packed grid edges of the found
                                        route (decode with
                                        {!edge_of_code}); empty when
                                        unrouted or when the pins share
                                        a grid node *)
  mutable routed : bool;            (** false only when A* failed *)
}

type net_route = {
  net_id : int;            (** design net id *)
  subnets : subnet array;  (** MST decomposition, in routing order *)
}

type result = {
  grid : Grid.t;                 (** the grid with final usage counts *)
  routes : net_route array;      (** one entry per signal net *)
  config : config;               (** configuration the run used *)
  mutable failed_subnets : int;  (** subnets with [routed = false] *)
}

(** Test-only hooks into the calling domain's search scratch; no flow
    calls them. *)
module Testing : sig
  (** The generation at which the next subnet restarts the count,
      zeroing the node records and target marks first. *)
  val generation_reset : int

  (** The calling domain's current generation. *)
  val generation : unit -> int

  (** [set_generation g] moves the calling domain's generation up to
      [g], e.g. to just below {!generation_reset}, so a route crosses
      the restart.
      @raise Invalid_argument if [g] is below the current generation,
      which would let stale records match. *)
  val set_generation : int -> unit
end

(** [net_overflow g nr] is the number of [nr]'s committed edge
    occurrences lying on overflowed edges (usage > 1) of [g], counted
    over its stored paths: positive exactly when the net crosses
    congestion. O(path length); rip-up asks it of each net as it
    reaches the net. *)
val net_overflow : Grid.t -> net_route -> int

(** [route ?config placement] routes all signal nets of the placement.

    The initial pass is tiled: the grid is cut into fixed
    [shard_tracks]-sized tiles, nets whose pin-access bounding box plus
    the first search margin fits inside one tile are routed first, tile
    by tile, with searches clamped to their tile, and the remainder
    (tile-spanning nets plus any in-tile failure, rolled back first) is
    routed afterwards in the original order with full window
    escalation. Every net routes on the calling domain, so results do
    not depend on [--jobs].

    Hot-path machinery: pin access nodes come from the index
    precomputed at [Grid.of_placement] time, the A* open list is the
    {!Bqueue} dial queue (kept in this module so the A* loop calls it
    directly), the net's already-connected node set is a
    generation-stamped {!Stampset}, and rip-up passes test each net with
    {!net_overflow}, a scan of that net's own stored paths — a pass with
    no overflowed edge ([Grid.overflow_count] = 0) scans nothing. Each
    node's search state is one word (generation, distance stored
    inverted, and the move that reached the node), so "stale or
    longer" is one integer compare and a relax touches one word;
    open-list entries carry the node's packed (layer, row, column), so a
    pop decodes with shifts, not [mod] and [/]; and a relax whose f is
    at or above the smallest f at which a target is already queued is
    skipped, which is exact because ties pop FIFO — every route is
    byte-identical to the unpruned search. Each search folds the cost
    model into integer bases (an edge costs its base plus usage times
    the scaled penalty), reads the grid's packed edge word directly, and
    has the heuristic and relax inlined into the expansion loop; a
    search allocates nothing. A path cost beyond the record's distance
    field raises [Failure] rather than pruning.

    The search context (node records, tree set, M1 target marks, open
    list) is kept per domain, reused by every later route there and
    grown only for a larger grid. A domain thus retains about
    [2 + 1/layers] words per node of the largest grid it has routed,
    plus the open list of its largest search. Its generation counter
    only rises, so stamps left by an earlier route, finished or raised,
    never match and reuse changes no routed edge; once half of the
    record's generation field is used, the next subnet zeroes the
    records and target marks and restarts the count
    ({!Testing.generation_reset}).

    Emits observability when [Obs.enabled]: a [route] span with nested
    [route.initial] and per-pass [route.ripup] spans, the
    [route.subnets] / [route.subnet_attempts] / [route.ripup_nets] /
    [route.ripup_candidates] / [route.failed_subnets] /
    [route.shard_nets] / [route.deferred_nets] / [route.bq_pushes] /
    [route.pin_access_hits] / [route.scratch_allocs] (routes that had
    to allocate or grow their domain's search context) counters and the
    [route.overflow_edges] gauge. *)
val route : ?config:config -> Place.Placement.t -> result
