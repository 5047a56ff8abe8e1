(** Algorithm 1 (VM1Opt): the metaheuristic outer loop.

    For each input parameter set u of the queue U, iterate until the
    normalised objective improvement drops below theta:
    DistOpt with perturbation and no flipping, then DistOpt with flipping
    only, then shift the window grid so cells stuck at the previous
    iteration's window boundaries become optimisable. *)

(** Where the window memo-cache (see {!Wcache}) for a run comes from.
    [Fresh_wcache] (the default) creates a private cache per [run] —
    outer iterations re-encounter converged windows and replay them.
    [Shared_wcache] reuses a caller-owned cache across runs (the daemon
    keeps one per worker domain, warming across jobs); the caller owns
    domain confinement. Results are byte-identical under either policy
    (the hit ≡ miss invariant). *)
type wcache_policy =
  | Fresh_wcache
  | Shared_wcache of Wcache.t

type config = {
  sequence : Params.step list;
  mode : Scp_solver.mode;
  parallel : bool;        (** distribute window batches over domains *)
  candidate_cost : (site:int -> row:int -> float) option;
  (** static per-candidate penalty (the congestion-aware extension) *)
  wcache : wcache_policy;
}

val default_config : config

type iteration = {
  step_index : int;       (** which u in U *)
  objective : float;      (** after the iteration *)
  delta : float;          (** normalised improvement *)
  moves : int;
}

type report = {
  initial_objective : float;
  final_objective : float;
  iterations : iteration list;
  runtime_s : float;
}

(** [run ?config params p] optimises in place and reports the trajectory.
    Window sizes in the sequence are given in micrometres and converted
    to sites/rows against the placement's technology. *)
val run : ?config:config -> Params.t -> Place.Placement.t -> report
