(** Classical HPWL-driven ordered single-row detailed placement with free
    sites, solved optimally per row by dynamic programming (after Kahng,
    Tucker and Zelikovsky, ASPDAC 1999 — the first related-work category
    the paper contrasts itself against).

    Cells keep their left-to-right order within the row; the DP
    distributes the row's free sites to minimise the summed HPWL of all
    incident nets, with every other row fixed. This is the "traditional
    wirelength-driven detailed placement" baseline: it reduces HPWL and
    routed wirelength but is blind to vertical M1 alignment. *)

(** [optimize_row p ~row] optimally re-spaces the cells of [row] (order
    preserved). Returns the HPWL improvement in DBU (>= 0).

    Cell [j] (of [k], left to right) can only sit in its feasible span
    [\[lo_j, hi_j\]]: [lo_j] is the summed width of the cells to its left,
    [hi_j] is the row's sites minus the summed width of the cells from
    [j] rightwards. All spans have [L] = slack + 1 sites, and the DP
    evaluates only those: [k * L] states (the [place.dp_states]
    counter), each costing one pass over the cell's pins, with a
    [k * L] choice table. A row whose cells do not fit (no span) returns
    0 and moves nothing. Among equal-cost placements the DP keeps the
    leftmost site for each cell, scanning from the last cell back. *)
val optimize_row : Placement.t -> row:int -> int

(** [optimize ?passes p] sweeps all rows [passes] times (default 2),
    under a [place.row_opt] span with a [rows] attribute. Returns the
    total HPWL improvement in DBU. The placement stays legal. *)
val optimize : ?passes:int -> Placement.t -> int
