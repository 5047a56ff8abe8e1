(** Window solvers over the SCP candidate structure.

    [`Exact] is an exhaustive depth-first search over candidate
    assignments with occupancy pruning and incumbent pruning — optimal,
    and only usable when the product of candidate counts is small (it
    refuses otherwise). [`Greedy] is iterated coordinate descent: each
    pass scans cells and moves each to its best feasible candidate with
    the others fixed, until a pass finds no improving move. [`Auto] picks
    [`Exact] for tiny windows and [`Greedy] otherwise. [`Anneal] runs
    simulated annealing (Metropolis acceptance, geometric cooling, best
    assignment kept) on top of the greedy solution and polishes with a
    final greedy pass — the paper's future-work direction (iii);
    deterministic, never worse than [`Greedy] on the same problem.

    [`Portfolio] picks the best of the heterogeneous solvers: [`Exact]
    (only when admissible by the [`Auto] bound, on a
    {!Wproblem.clone}), [`Greedy] and [`Anneal], computed in one
    sequential pass — [`Anneal] continues from the greedy run that is
    also [`Greedy]'s result. The winner — best [objective_after], ties
    broken by the fixed solver rank exact > greedy > anneal — is applied
    to the input problem and counted in [distopt.portfolio_wins.*]. The
    winner is a pure function of the problem, so results are
    byte-identical across [--jobs]; never worse than [`Greedy] or
    [`Anneal] alone on the same window.

    Tests validate [`Exact] against the generic MILP formulation and
    measure the [`Greedy]-vs-[`Exact] gap on small windows. *)

type mode = [ `Exact | `Greedy | `Anneal | `Auto | `Portfolio ]

(** [mode_to_string] / [mode_of_string]: the CLI and wire names
    (["exact"], ["greedy"], ["anneal"], ["auto"], ["portfolio"]). *)
val mode_to_string : mode -> string

val mode_of_string : string -> mode option

type stats = {
  objective_before : float;  (** window objective at the input assignment *)
  objective_after : float;   (** window objective at the final assignment;
                                 never greater than [objective_before] *)
  moves : int;               (** cells whose final candidate differs from
                                 their input candidate *)
  passes : int;              (** coordinate-descent passes ([`Greedy]); 1
                                 for [`Exact] *)
}

(** [solve ?mode ?max_passes t] optimises the window problem in place (the
    problem's candidate choices change; call [Wproblem.commit] to write
    back into the placement).
    @raise Invalid_argument if [`Exact] is requested on a too-large
    window. *)
val solve : ?mode:mode -> ?max_passes:int -> Wproblem.t -> stats

(** [exact_search_space t] is the product of candidate counts, saturating
    at [max_int / 2]; [`Exact] accepts problems up to [exact_limit]. *)
val exact_search_space : Wproblem.t -> int

val exact_limit : int
