type relation = Le | Ge | Eq

type problem = {
  ncols : int;
  objective : float array;
  rows : (float array * relation * float) list;
}

type status = Optimal | Infeasible | Unbounded | IterLimit

type solution = {
  status : status;
  objective_value : float;
  values : float array;
}

let eps = 1e-9

(* Two-phase dense primal simplex. Phase 1 minimises the sum of
   artificial variables with unit costs — no big-M constants, so reduced
   costs keep full precision; phase 2 re-installs the real objective with
   artificial columns banned from entering the basis. *)
let solve ?(iter_limit = 20_000) (p : problem) =
  let rows = Array.of_list p.rows in
  let m = Array.length rows in
  let n = p.ncols in
  (* equilibrate each row to a largest coefficient of 1, then normalise
     to b >= 0. Without the scaling, big-M rows (coefficients ~1e6 next
     to geometry of ~1e2) swamp the tableau's rounding error and the
     simplex reports wrong optima and false infeasibility. *)
  let rows =
    Array.map
      (fun (a, rel, b) ->
        let amax =
          Array.fold_left (fun acc v -> Float.max acc (abs_float v)) 0.0 a
        in
        let a, b =
          if amax > 0.0 then (Array.map (fun v -> v /. amax) a, b /. amax)
          else (a, b)
        in
        if b < 0.0 then
          let a' = Array.map (fun v -> -.v) a in
          let rel' = match rel with Le -> Ge | Ge -> Le | Eq -> Eq in
          (a', rel', -.b)
        else (Array.copy a, rel, b))
      rows
  in
  let n_slack =
    Array.fold_left
      (fun acc (_, rel, _) -> match rel with Le | Ge -> acc + 1 | Eq -> acc)
      0 rows
  in
  let n_art =
    Array.fold_left
      (fun acc (_, rel, _) -> match rel with Ge | Eq -> acc + 1 | Le -> acc)
      0 rows
  in
  let art_start = n + n_slack in
  let width = n + n_slack + n_art + 1 in
  let t = Array.make_matrix (m + 1) width 0.0 in
  let basis = Array.make m (-1) in
  let slack_cursor = ref n in
  let art_cursor = ref art_start in
  Array.iteri
    (fun r (a, rel, b) ->
      Array.blit a 0 t.(r) 0 (min n (Array.length a));
      t.(r).(width - 1) <- b;
      match rel with
      | Le ->
        t.(r).(!slack_cursor) <- 1.0;
        basis.(r) <- !slack_cursor;
        incr slack_cursor
      | Ge ->
        t.(r).(!slack_cursor) <- -1.0;
        incr slack_cursor;
        t.(r).(!art_cursor) <- 1.0;
        basis.(r) <- !art_cursor;
        incr art_cursor
      | Eq ->
        t.(r).(!art_cursor) <- 1.0;
        basis.(r) <- !art_cursor;
        incr art_cursor)
    rows;
  let pivot r c =
    let pv = t.(r).(c) in
    for j = 0 to width - 1 do
      t.(r).(j) <- t.(r).(j) /. pv
    done;
    for i = 0 to m do
      if i <> r && abs_float t.(i).(c) > eps then begin
        let f = t.(i).(c) in
        for j = 0 to width - 1 do
          t.(i).(j) <- t.(i).(j) -. (f *. t.(r).(j))
        done
      end
    done;
    basis.(r) <- c
  in
  let iters = ref 0 in
  let bland_after = iter_limit / 2 in
  (* runs the simplex loop on the current objective row; [allowed c] gates
     entering columns. Returns the termination status. *)
  let run_simplex allowed =
    let result = ref Optimal in
    (try
       while true do
         incr iters;
         if !iters > iter_limit then begin
           result := IterLimit;
           raise Exit
         end;
         let col = ref (-1) in
         if !iters > bland_after then begin
           (try
              for j = 0 to width - 2 do
                if allowed j && t.(m).(j) < -.eps then begin
                  col := j;
                  raise Exit
                end
              done
            with Exit -> ())
         end
         else begin
           let best = ref (-.eps) in
           for j = 0 to width - 2 do
             if allowed j && t.(m).(j) < !best then begin
               best := t.(m).(j);
               col := j
             end
           done
         end;
         if !col < 0 then raise Exit (* optimal for this objective *);
         let row = ref (-1) in
         let best_ratio = ref infinity in
         for i = 0 to m - 1 do
           if t.(i).(!col) > eps then begin
             let ratio = t.(i).(width - 1) /. t.(i).(!col) in
             if
               ratio < !best_ratio -. eps
               || (ratio < !best_ratio +. eps
                   && (!row < 0 || basis.(i) < basis.(!row)))
             then begin
               best_ratio := ratio;
               row := i
             end
           end
         done;
         if !row < 0 then begin
           result := Unbounded;
           raise Exit
         end;
         pivot !row !col
       done
     with Exit -> ());
    !result
  in
  let install_objective costs =
    (* row m = costs, reduced by the basic rows *)
    Array.fill t.(m) 0 width 0.0;
    Array.iteri (fun j c -> t.(m).(j) <- c) costs;
    for r = 0 to m - 1 do
      let cb = if basis.(r) < Array.length costs then costs.(basis.(r)) else 0.0 in
      if abs_float cb > eps then
        for j = 0 to width - 1 do
          t.(m).(j) <- t.(m).(j) -. (cb *. t.(r).(j))
        done
    done
  in
  let status = ref Optimal in
  (* phase 1: minimise the artificial sum (skippable when there are no
     artificial variables) *)
  if n_art > 0 then begin
    let phase1_costs = Array.make (width - 1) 0.0 in
    for j = art_start to art_start + n_art - 1 do
      phase1_costs.(j) <- 1.0
    done;
    install_objective phase1_costs;
    (match run_simplex (fun _ -> true) with
    | Optimal ->
      (* phase-1 value = -t.(m).(width-1); infeasible when positive *)
      if -.t.(m).(width - 1) > 1e-7 then status := Infeasible
    | Unbounded ->
      (* the phase-1 objective is bounded below by 0; unbounded signals a
         numerical breakdown — report iteration trouble *)
      status := IterLimit
    | IterLimit -> status := IterLimit
    | Infeasible -> assert false)
  end;
  (* between phases: drive artificial variables out of the basis so
     phase-2 pivots cannot push them positive again. A row whose
     non-artificial entries are all zero is redundant; its artificial
     stays basic at level 0 and no later pivot can touch the row. *)
  if !status = Optimal && n_art > 0 then
    for r = 0 to m - 1 do
      if basis.(r) >= art_start then begin
        let c = ref (-1) in
        for j = 0 to art_start - 1 do
          if !c < 0 && abs_float t.(r).(j) > 1e-7 then c := j
        done;
        if !c >= 0 then pivot r !c
      end
    done;
  (* phase 2: the real objective, artificial columns banned *)
  if !status = Optimal then begin
    let phase2_costs = Array.make (width - 1) 0.0 in
    Array.blit p.objective 0 phase2_costs 0 n;
    install_objective phase2_costs;
    let allowed j = j < art_start in
    status := run_simplex allowed
  end;
  let values = Array.make n 0.0 in
  for r = 0 to m - 1 do
    if basis.(r) < n then values.(basis.(r)) <- t.(r).(width - 1)
  done;
  (* a point that breaks its own rows is a numerical breakdown, not an
     optimum: report it as such, so branch and bound neither prunes on
     its value nor accepts it as an incumbent *)
  let violated (a, rel, b) =
    let lhs = ref 0.0 in
    Array.iteri (fun j v -> if j < n then lhs := !lhs +. (v *. values.(j))) a;
    let tol = 1e-6 *. (1.0 +. abs_float b) in
    match rel with
    | Le -> !lhs > b +. tol
    | Ge -> !lhs < b -. tol
    | Eq -> abs_float (!lhs -. b) > tol
  in
  if
    !status = Optimal
    && (Array.exists violated rows || Array.exists (fun v -> v < -1e-6) values)
  then status := IterLimit;
  let objective_value =
    match !status with
    | Optimal ->
      let acc = ref 0.0 in
      for j = 0 to n - 1 do
        acc := !acc +. (p.objective.(j) *. values.(j))
      done;
      !acc
    | Infeasible | Unbounded | IterLimit -> nan
  in
  { status = !status; objective_value; values }
