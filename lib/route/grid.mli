(** Track-level routing grid over layers M1..M6.

    Tracks sit at the real track pitch (vertical M1/M3 tracks at the
    placement-site pitch, horizontal M2/M4 tracks at the M2 pitch), so one
    wire per track edge is the physical capacity — an edge used twice is a
    routing DRV, which is how the congestion experiments count violations.

    Each layer only has edges along its preferred direction (odd layers
    M1/M3/M5 vertical, even layers M2/M4/M6 horizontal); adjacent layers
    are connected by via edges at every track crossing.

    Pin geometry from the placement becomes blockage-with-owner: M1 edges
    covered by a ClosedM1 (or conventional) pin are reserved for that pin's
    net — other nets cannot pass through, but the owner net can. The
    conventional 12-track architecture additionally blocks every M1 edge
    that crosses a row boundary (the horizontal M1 power rails), which is
    exactly why it cannot route inter-row M1; the 7.5-track architectures
    lose the M2 track along each row boundary instead, and every 8th M5
    and M6 track carries a power strap. {!of_placement} installs all of
    this afresh for every grid: nothing about a grid is cached across
    placements, because installing the rail and strap blockage in place
    is cheaper than copying a cached copy of it. *)

type t = {
  placement : Place.Placement.t;
  nx : int;                (** vertical track count (x direction) *)
  ny : int;                (** horizontal track count (y direction) *)
  nl : int;                (** number of metal layers in this grid *)
  pitch : int;             (** track pitch in DBU, both directions *)
  edges : int array;
      (** one packed word per node: the wire edge's usage in bits
          [0 .. via_shift - 1], the via edge's usage in bits
          [via_shift .. owner_shift - 1] and the wire edge's owner + 2
          above [owner_shift]; read it with {!wire_owner},
          {!wire_usage} and {!via_usage} *)
  pin_base : int array;    (** per instance: first flat pin index *)
  mutable pin_access_off : int array;
      (** pin-access index offsets, length total pins + 1 *)
  mutable pin_access_nodes : int array;
      (** access nodes of flat pin [p]: entries
          [pin_access_off.(p) .. pin_access_off.(p+1) - 1] *)
  mutable overflow_edges : int;
      (** total edges with usage > 1, kept by the commit functions *)
}

(** {!wire_owner} value: unreserved. *)
val free : int

(** {!wire_owner} value: hard blockage. *)
val blocked : int

(** [wire_owner g n] is the owner of the wire edge at node [n]: {!free},
    {!blocked} or the net id the edge is reserved for. *)
val wire_owner : t -> int -> int

(** [wire_usage g n] is the number of routes using the wire edge at
    node [n]. *)
val wire_usage : t -> int -> int

(** [via_usage g n] is the number of routes using the via edge above
    node [n]. *)
val via_usage : t -> int -> int

(** The edge word's layout, for code that decodes [edges] in a loop
    rather than through the accessors: each usage field is [usage_mask]
    wide, the via usage starts at bit [via_shift] and the owner + 2 at
    bit [owner_shift]. *)
val usage_mask : int

val via_shift : int
val owner_shift : int

(** 6: M1..M6, alternating vertical/horizontal preferred directions. *)
val num_layers : int

(** [node g ~layer ~i ~j] is the dense node index. [layer] is the metal
    index, 1..6. *)
val node : t -> layer:int -> i:int -> j:int -> int

val layer_of_node : t -> int -> int
val i_of_node : t -> int -> int
val j_of_node : t -> int -> int

(** [node_count g] is the total number of nodes (= length of [edges];
    the wire edge at a node leads to the next node in the layer's
    preferred direction, the via edge leads to the same (i,j) one layer
    up). *)
val node_count : t -> int

(** [track_x g i] / [track_y g j] are the chip coordinates of track
    centres. *)
val track_x : t -> int -> int

val track_y : t -> int -> int

(** [x_to_track g x] is the nearest vertical-track index, clamped to the
    grid. *)
val x_to_track : t -> int -> int

val y_to_track : t -> int -> int

(** [is_vertical_layer l] is true for the odd (vertical) layers. *)
val is_vertical_layer : int -> bool

(** [has_wire_edge g n] is true when node [n] has a successor along its
    layer's preferred direction. *)
val has_wire_edge : t -> int -> bool

(** [wire_dest g n] is that successor node. *)
val wire_dest : t -> int -> int

(** [has_via_edge g n] is true when node [n] is on M1..M3 (via up). *)
val has_via_edge : t -> int -> bool

(** [via_dest g n] is the node one layer up at the same (i,j). *)
val via_dest : t -> int -> int

(** [of_placement ?layers p] builds the grid and installs blockage:
    M1 power rails for the conventional architecture or M2 power rails
    along row boundaries for the 7.5-track architectures; periodic
    M5/M6 power straps on every 8th track; and per-pin M1 blockage with
    net ownership. [layers] (2..6, default 6) limits the routable
    stack. Raises [Invalid_argument] when a net id does not fit the
    owner field of the edge word. Rebuild after the placement
    changes. *)
val of_placement : ?layers:int -> Place.Placement.t -> t

(** [pin_access g pr] is the list of grid nodes at which a route may
    terminate for the given pin: on-M1 nodes along the pin segment for
    ClosedM1/conventional pins, on-M1 via-landing nodes over the M0
    segment for OpenM1 pins. Never empty for pins inside the die,
    duplicate-free. Served from the index precomputed at
    [of_placement] time; O(answer), not O(nx*ny). Bumps the
    [route.pin_access_hits] counter when observability is enabled. *)
val pin_access : t -> Netlist.Design.pin_ref -> int list

(** [pin_access_iter g pr f] applies [f] to each access node without
    allocating the list; the hot-path form of [pin_access]. *)
val pin_access_iter : t -> Netlist.Design.pin_ref -> (int -> unit) -> unit

(** Reference implementation of [pin_access]: the original full track
    scan over every shape. Quadratic in grid side — kept only as the
    oracle for property tests of the index. *)
val pin_access_scan : t -> Netlist.Design.pin_ref -> int list

(** {2 Usage commitment}

    All routed usage must flow through these four functions: besides the
    usage counters they keep the total of overflowed edges (usage > 1),
    which is what makes [overflow_count] O(1). They allocate nothing and
    record no edge's users: the router finds the nets on overflowed
    edges by scanning their own stored paths. A commit past
    [usage_mask] or an uncommit of an unused edge raises
    [Invalid_argument] rather than spilling into the next field. *)

val commit_wire : t -> int -> unit
val commit_via : t -> int -> unit
val uncommit_wire : t -> int -> unit
val uncommit_via : t -> int -> unit

(** [overflow_count g] is the number of wire and via edges whose usage
    exceeds capacity 1 — the DRV proxy. O(1). *)
val overflow_count : t -> int

(** Reference implementation of [overflow_count], scanning every edge;
    kept as the test oracle for the O(1) count. *)
val overflow_count_scan : t -> int

(** [clear_usage g] zeroes all usage counters and the overflowed-edge
    total, keeping every owner. *)
val clear_usage : t -> unit
