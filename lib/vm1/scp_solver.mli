(** Window solvers over the SCP candidate structure.

    [`Greedy] is iterated coordinate descent: each pass scans cells and
    moves each to its best feasible candidate with the others fixed,
    until a pass finds no improving move. [`Anneal] runs simulated
    annealing (Metropolis acceptance, geometric cooling, best assignment
    kept) on top of the greedy solution and polishes with a final greedy
    pass — the paper's future-work direction (iii); deterministic, never
    worse than [`Greedy] on the same problem.

    [`Portfolio] picks the best of the heterogeneous solvers: {!exact}
    (only on windows small enough for it to be clearly cheap, on a
    {!Wproblem.clone}), [`Greedy] and [`Anneal], computed in one
    sequential pass — [`Anneal] continues from the greedy run that is
    also [`Greedy]'s result. The winner — best [objective_after], ties
    broken by the fixed solver rank exact > greedy > anneal — is applied
    to the input problem and counted in [distopt.portfolio_wins.*]. The
    winner is a pure function of the problem, so results are
    byte-identical across [--jobs]; never worse than [`Greedy] or
    [`Anneal] alone on the same window.

    {!exact} is an exhaustive depth-first search with occupancy and
    incumbent pruning — optimal, but it refuses windows whose product of
    candidate counts is large, as the flow's windows are, so it is no
    flow mode. Tests validate it against the generic MILP formulation
    and measure the [`Greedy]-vs-exact gap on small windows. *)

type mode = [ `Greedy | `Anneal | `Portfolio ]

(** [mode_to_string] / [mode_of_string]: the CLI and wire names
    (["greedy"], ["anneal"], ["portfolio"]). *)
val mode_to_string : mode -> string

val mode_of_string : string -> mode option

(** Every mode, in the order the CLIs list them. *)
val modes : mode list

type stats = {
  objective_before : float;  (** window objective at the input assignment *)
  objective_after : float;   (** window objective at the final assignment;
                                 never greater than [objective_before] *)
  moves : int;               (** cells whose final candidate differs from
                                 their input candidate *)
  passes : int;              (** coordinate-descent passes ([`Greedy]); 1
                                 for {!exact} *)
}

(** [solve ?mode ?max_passes t] optimises the window problem in place
    with [mode] (default [`Greedy]); call [Wproblem.commit] to write the
    new candidate choices back into the placement. *)
val solve : ?mode:mode -> ?max_passes:int -> Wproblem.t -> stats

(** [exact t] solves the window optimally in place (passes = 1).
    @raise Invalid_argument if [exact_search_space t > exact_limit]. *)
val exact : Wproblem.t -> stats

(** [exact_search_space t] is the product of candidate counts, saturating
    above [exact_limit]; {!exact} accepts problems up to [exact_limit]. *)
val exact_search_space : Wproblem.t -> int

val exact_limit : int
