(** Memo-cache of solved window subproblems, keyed by canonical form.

    Detailed-placement outer iterations re-extract and re-solve many
    windows whose content did not change since the previous pass (the
    grid only shifts by half a window between perturbation passes, and
    most windows converge early), and [vm1d] keeps one cache per worker
    across jobs. This cache short-circuits those solves: a window is
    reduced to a translation-invariant canonical form — cell widths,
    candidate lists and pin geometries rebased to the window origin,
    candidate penalties, net weights and memberships, fixed blockage,
    architecture parameters, and the solver mode — and content-hashed
    into a key.

    {b A batch in four steps} ([Dist_opt]): the key phase
    ({!Wproblem.frame}) runs for every window, which is all that {!key}
    reads; the keys are computed and probed; the table phase
    ({!Wproblem.tables}) runs only for the misses, which are solved and
    inserted; a hit replays its cached per-cell candidate assignment
    straight into the frame ({!Wproblem.replay}) and commits
    [cands.(cur)] — no tables, no occupancy, no [apply]. Candidate
    indices are translation-invariant, so the replay lands each cell
    exactly where a fresh solve would.

    {b Hit ≡ miss invariant}: for canonically-equal problems, replaying
    a cached assignment and solving from scratch produce bit-identical
    assignments, objectives and committed placements, and a traced hit
    reports the same [distopt.window] attributes (the entry carries the
    miss's stats and before/after QoR, all translation-invariant under
    key equality). The key includes every input the deterministic
    solvers read (including float summation order, fixed by the
    serialized array orders), so this holds by construction;
    [test_vm1] checks it on whole DistOpt runs, [test_properties] on
    translated windows, and [test_portfolio_oracle] checks that the key
    separates exactly what its reference encoding separates.
    [vm1opt --check] does not look at cached windows: its MILP oracle
    ([Check.milp_window]) extracts its own fresh window of at most three
    cells from the final placement, solves it with the MILP and
    re-verifies that assignment against constraints (1)-(14); its other
    oracles check the netlist, placement legality, window independence,
    the objective recount and the route of the final placement. A wrong
    replay would show there only as an illegal or mis-scored result.

    {b Domain confinement}: like [Serve.Cache], a [t] is plain mutable
    state with no internal synchronisation — confine each instance to
    one domain ([Exec.Dls] gives the serve engine a per-worker cache).
    Probing sequentially from the coordinator and solving only the
    misses in parallel (what [Dist_opt] does) is also fine: the cache is
    never touched from pool workers.

    Eviction is LRU with a bounded entry count. Counters
    [distopt.wcache_hits] / [distopt.wcache_misses] and gauge
    [distopt.wcache_entries] report behaviour through [Obs]. *)

type t

type entry = {
  assignment : int array;  (** per-cell candidate index, window-local *)
  stats : Scp_solver.stats;  (** the stats of the original solve *)
  qor0 : Wproblem.qor;  (** the window's QoR before the original solve *)
  qor1 : Wproblem.qor;  (** and after it *)
}

val default_capacity : int
(** 4096 entries — a few MB for typical window sizes. *)

val create : ?capacity:int -> unit -> t

(** [key ~mode p] is the canonical content hash of the window problem
    under solver [mode]. It reads only what the key phase builds, so a
    frame ([(f :> Wproblem.t)]) and its {!Wproblem.tables} get the same
    key. Two problems get equal keys iff the
    deterministic solvers would trace identical trajectories on them —
    in particular a window and its uniformly-translated copy collide,
    while any difference in content, candidate clipping, per-candidate
    penalty, parameters or solver mode separates them. *)
val key : mode:Scp_solver.mode -> Wproblem.t -> string

(** [find t key] returns the cached entry and refreshes its recency, or
    [None]. Bumps the hit/miss counters. *)
val find : t -> string -> entry option

(** [add t key entry] inserts (or refreshes) the entry, evicting the
    least-recently-used one past capacity. *)
val add : t -> string -> entry -> unit

val length : t -> int

(** [stats t] is [(hits, misses)] over this instance's lifetime. *)
val stats : t -> int * int
