type mode = [ `Greedy | `Anneal | `Portfolio ]

let mode_to_string = function
  | `Greedy -> "greedy"
  | `Anneal -> "anneal"
  | `Portfolio -> "portfolio"

let modes = [ `Greedy; `Anneal; `Portfolio ]

let mode_of_string s =
  List.find_opt (fun m -> String.equal (mode_to_string m) s) modes

type stats = {
  objective_before : float;
  objective_after : float;
  moves : int;
  passes : int;
}

let exact_limit = 1_000_000

let exact_search_space (t : Wproblem.t) =
  Array.fold_left
    (fun acc (c : Wproblem.cell) ->
      let k = Array.length c.cands in
      if acc > exact_limit then acc else acc * k)
    1 t.cells

(* [scan]'s result when the best action is the ripple plan it kept *)
let plan_move = -2

(* One cell's candidate scan, the inner loop of Algorithm 2: the best
   strictly improving action for [cell] from candidate [cand] on, given
   the best so far. A candidate index is a single move, [plan_move] the
   ripple plan kept by [Wproblem.keep_plan], -1 no move. The cell's own
   state is constant across the scan (plans tested via plan_delta are
   reverted), so the cur-cost half of move_delta is hoisted out: same
   floats, half the local_cost walks. *)
let[@vm1.hot] rec scan (t : Wproblem.t) ~cell ~cur_cost ~cur_gain cand best
    best_delta =
  let c = t.cells.(cell) in
  if cand = Array.length c.cands then best
  else if cand = c.cur then
    scan t ~cell ~cur_cost ~cur_gain (cand + 1) best best_delta
  else if Wproblem.candidate_free t ~cell ~cand then begin
    let d = Wproblem.local_cost t ~cell ~cand -. cur_cost in
    if d < best_delta -. 1e-9 then
      scan t ~cell ~cur_cost ~cur_gain (cand + 1) cand d
    else scan t ~cell ~cur_cost ~cur_gain (cand + 1) best best_delta
  end
  else if
    (* occupied: worth a ripple move only when it buys pair gain *)
    Wproblem.cell_pair_gain_at t ~cell ~cand > cur_gain +. 1e-9
    && Wproblem.shove_plan t ~cell ~cand
  then begin
    let d = Wproblem.plan_delta t in
    if d < best_delta -. 1e-9 then begin
      Wproblem.keep_plan t;
      scan t ~cell ~cur_cost ~cur_gain (cand + 1) plan_move d
    end
    else scan t ~cell ~cur_cost ~cur_gain (cand + 1) best best_delta
  end
  else scan t ~cell ~cur_cost ~cur_gain (cand + 1) best best_delta

let greedy ?(max_passes = 8) (t : Wproblem.t) =
  let before = Wproblem.objective t in
  let moves = ref 0 in
  let passes = ref 0 in
  let improved = ref true in
  let n = Array.length t.cells in
  while !improved && !passes < max_passes do
    improved := false;
    incr passes;
    for cell = 0 to n - 1 do
      let cand = t.cells.(cell).cur in
      let cur_gain = Wproblem.cell_pair_gain_at t ~cell ~cand in
      let cur_cost = Wproblem.local_cost t ~cell ~cand in
      let best = scan t ~cell ~cur_cost ~cur_gain 0 (-1) 0.0 in
      if best = plan_move then begin
        moves := !moves + Wproblem.apply_kept_plan t;
        improved := true
      end
      else if best >= 0 then begin
        Wproblem.apply t ~cell ~cand:best;
        incr moves;
        improved := true
      end
    done
  done;
  {
    objective_before = before;
    objective_after = Wproblem.objective t;
    moves = !moves;
    passes = !passes;
  }

let exact (t : Wproblem.t) =
  if exact_search_space t > exact_limit then
    invalid_arg "Scp_solver: window too large for exact search";
  let before = Wproblem.objective t in
  let n = Array.length t.cells in
  let saved = Array.map (fun (c : Wproblem.cell) -> c.cur) t.cells in
  let best_obj = ref before in
  let best_assign = Array.copy saved in
  (* lift every movable cell so that candidate feasibility is tested only
     against fixed blockage and already-assigned cells; otherwise a joint
     configuration where one cell takes another's vacated spot would be
     wrongly pruned *)
  for cell = 0 to n - 1 do
    Wproblem.lift t ~cell
  done;
  let rec go cell =
    if cell = n then begin
      let obj = Wproblem.objective t in
      if obj < !best_obj -. 1e-9 then begin
        best_obj := obj;
        Array.iteri
          (fun i (c : Wproblem.cell) -> best_assign.(i) <- c.cur)
          t.cells
      end
    end
    else begin
      let c = t.cells.(cell) in
      for cand = 0 to Array.length c.cands - 1 do
        if Wproblem.footprint_free_at t ~cell ~cand then begin
          Wproblem.set_cur t ~cell ~cand;
          Wproblem.drop t ~cell;
          go (cell + 1);
          Wproblem.lift t ~cell
        end
      done;
      Wproblem.set_cur t ~cell ~cand:saved.(cell)
    end
  in
  go 0;
  (* restore occupancy at the saved assignment, then apply the best one
     through the normal API *)
  for cell = 0 to n - 1 do
    Wproblem.set_cur t ~cell ~cand:saved.(cell);
    Wproblem.drop t ~cell
  done;
  Array.iteri (fun i cand -> Wproblem.apply t ~cell:i ~cand) best_assign;
  let moves = ref 0 in
  Array.iteri
    (fun i (c : Wproblem.cell) -> if c.cur <> saved.(i) then incr moves)
    t.cells;
  {
    objective_before = before;
    objective_after = Wproblem.objective t;
    moves = !moves;
    passes = 1;
  }

(* Simulated annealing on top of the greedy solution (the paper's
   future-work direction (iii)): random single-cell moves accepted by the
   Metropolis rule with a geometric cooling schedule, the best visited
   assignment kept, and a final greedy polish. Deterministic: the RNG is
   seeded from the problem shape. [anneal_from_greedy] is the part after
   the greedy run, continuing from the state it left and its stats
   [g_stats]; the portfolio shares that greedy run with its own greedy
   candidate. *)
type anneal_state = {
  mutable temp : float;
  mutable current : float;  (* objective of the current assignment *)
  mutable best_obj : float;
}

(* One Metropolis proposal: a random candidate of a random cell, accepted
   when it improves or with probability exp(-delta/temp); [best] tracks
   the best visited assignment. True when it moved a cell. *)
let[@vm1.hot] propose (t : Wproblem.t) rng st best =
  let n = Array.length t.cells in
  let cell = Random.State.int rng n in
  let c = t.cells.(cell) in
  let k = Array.length c.cands in
  let moved =
    k > 1
    &&
    let cand = Random.State.int rng k in
    cand <> c.cur
    && Wproblem.candidate_free t ~cell ~cand
    &&
    let delta = Wproblem.move_delta t ~cell ~cand in
    (delta < 0.0 || Random.State.float rng 1.0 < exp (-.delta /. st.temp))
    && begin
      Wproblem.apply t ~cell ~cand;
      st.current <- st.current +. delta;
      if st.current < st.best_obj -. 1e-9 then begin
        st.best_obj <- st.current;
        for i = 0 to n - 1 do
          best.(i) <- t.cells.(i).cur
        done
      end;
      true
    end
  in
  st.temp <- st.temp *. 0.999;
  moved

let anneal_from_greedy ?max_passes (t : Wproblem.t) (g_stats : stats) =
  let n = Array.length t.cells in
  if n = 0 then g_stats
  else begin
    let rng = Random.State.make [| n; Wproblem.num_pairs t; 0xa11ea1 |] in
    let best = Wproblem.assignment t in
    let obj = Wproblem.objective t in
    let st = { temp = 400.0; current = obj; best_obj = obj } in
    let iters = max 200 (40 * n) in
    let moves = ref 0 in
    for _ = 1 to iters do
      if propose t rng st best then incr moves
    done;
    Array.iteri (fun i cand -> Wproblem.apply t ~cell:i ~cand) best;
    let polish = greedy ?max_passes t in
    {
      objective_before = g_stats.objective_before;
      objective_after = polish.objective_after;
      moves = g_stats.moves + !moves + polish.moves;
      passes = g_stats.passes + 1 + polish.passes;
    }
  end

let anneal ?max_passes t =
  anneal_from_greedy ?max_passes t (greedy ?max_passes t)

(* --- the portfolio ---

   The winner among exact (when admissible), greedy and anneal is the
   best objective, ties broken by the fixed rank exact > greedy >
   anneal. Anneal starts with the very greedy run that is greedy's own
   result, so one sequential pass computes all three: exact on a clone,
   greedy on the problem (its assignment snapshotted), then the
   annealing continuation from that state. The rule depends only on the
   problem, so results are byte-identical across --jobs. *)

(* exact joins the portfolio only on windows where it is clearly cheap *)
let exact_admissible t =
  Array.length t.Wproblem.cells <= 6 && exact_search_space t <= 50_000

let c_win_exact = Obs.counter "distopt.portfolio_wins.exact"
let c_win_greedy = Obs.counter "distopt.portfolio_wins.greedy"
let c_win_anneal = Obs.counter "distopt.portfolio_wins.anneal"

let portfolio ?max_passes t =
  let exact_entry =
    if exact_admissible t then begin
      let p = Wproblem.clone t in
      let s = exact p in
      [ (c_win_exact, Wproblem.assignment p, s) ]
    end
    else []
  in
  let g = greedy ?max_passes t in
  let greedy_entry = (c_win_greedy, Wproblem.assignment t, g) in
  let a = anneal_from_greedy ?max_passes t g in
  let anneal_entry = (c_win_anneal, Wproblem.assignment t, a) in
  (* entries in rank order; a later one wins only by a strictly lower
     objective *)
  let better ((_, _, (b : stats)) as best) ((_, _, (s : stats)) as e) =
    if s.objective_after >= b.objective_after then best else e
  in
  let win_counter, assignment, s =
    match exact_entry @ [ greedy_entry; anneal_entry ] with
    | first :: rest -> List.fold_left better first rest
    | [] -> anneal_entry (* unreachable: the list is nonempty *)
  in
  Obs.Counter.incr win_counter;
  Wproblem.set_assignment t assignment;
  s

let c_mode_greedy = Obs.counter "scp.mode.greedy"
let c_mode_anneal = Obs.counter "scp.mode.anneal"
let c_mode_portfolio = Obs.counter "scp.mode.portfolio"

let solve ?(mode = `Greedy) ?max_passes t =
  match mode with
  | `Greedy ->
    Obs.Counter.incr c_mode_greedy;
    greedy ?max_passes t
  | `Anneal ->
    Obs.Counter.incr c_mode_anneal;
    anneal ?max_passes t
  | `Portfolio ->
    Obs.Counter.incr c_mode_portfolio;
    portfolio ?max_passes t
