(** Algorithm 2 (DistOpt): partition the layout into windows, then
    process diagonally-independent batches, optimising every window of a
    batch independently — in parallel over OCaml domains when [parallel]
    is set, which is the paper's distributable optimisation. The
    placement is updated after each batch, so later batches see earlier
    solutions as boundary conditions. *)

type config = {
  tx : int;            (** window-grid x offset, sites *)
  ty : int;            (** window-grid y offset, rows *)
  bw : int;            (** window width, sites *)
  bh : int;            (** window height, rows *)
  lx : int;            (** max x displacement, sites *)
  ly : int;            (** max y displacement, rows *)
  allow_flip : bool;   (** the f flag of Algorithm 1 *)
  allow_move : bool;   (** when false, cells may only flip in place
                           (Algorithm 1's flip-only phase) *)
  mode : Scp_solver.mode;
  parallel : bool;     (** solve each diagonal batch's windows on the
                           shared [Exec] pool ([Exec.jobs] domains,
                           spawned once per process, never per batch);
                           deterministic (identical to the sequential
                           result) because window subproblems are
                           self-contained after extraction *)
  candidate_cost : (site:int -> row:int -> float) option;
  (** static per-candidate penalty (congestion-aware extension) *)
  wcache : Wcache.t option;
  (** memo-cache of solved windows, probed with each window's key-phase
      frame (see {!Wcache}). A hit replays the cached assignment into
      the frame and never builds the solver tables; a miss builds them,
      solves and populates. The cache is touched only from the calling
      domain — probes/replays/inserts never run on pool workers — so any
      domain-confined instance is safe, and results are byte-identical
      with the cache on or off (the hit ≡ miss invariant). *)
}

type stats = {
  windows : int;      (** windows with at least one movable cell *)
  batches : int;      (** diagonally-independent batches processed *)
  total_moves : int;  (** accepted cell moves/flips, summed over windows *)
}

(** [run p params config] optimises in place. Emits observability when
    [Obs.enabled]: a [distopt.run] span with nested per-batch
    [distopt.batch] > [distopt.extract]/[distopt.solve]/[distopt.commit]
    spans, one [distopt.window] span per window solve carrying the
    window's identity (grid indices, site/row origin, DBU bounding box)
    and before/after QoR attrs (objective, HPWL, alignments, overlaps —
    the join keys and measures of [vm1trace attribute]),
    [scp.windows_solved] / [scp.moves] / [distopt.tables_built] counters
    and the [distopt.window_moves] histogram — identical placement
    results with instrumentation on or off. A cache hit's
    [distopt.window] span carries the same attrs as the miss it replays.
    [distopt.extract] times extraction and, with a cache, the keys and
    probes. Under [parallel], [distopt.window] spans
    solved on worker domains surface as their own roots. *)
val run : Place.Placement.t -> Params.t -> config -> stats
