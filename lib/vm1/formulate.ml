type built = {
  model : Milp.Model.t;
  lambda : Milp.Model.var array array;
}

let big_g = 1.0e6

(* Linear expression for coordinate [f] (0 ax, 1 x_lo, 2 x_hi, 3 y) of
   window pin [q], less [shift]: a constant for fixed pins, the sum over
   candidates of (coordinate * lambda) for movable ones. *)
let pin_expr (t : Wproblem.t) lambda q f shift =
  let k = q * Wproblem.pin_stride in
  let owner = t.pins.(k) in
  if owner < 0 then Milp.Model.const (float_of_int (t.pins.(k + 2 + f) - shift))
  else begin
    let cell = t.cells.(owner) in
    let at = t.pins.(k + 1) + f in
    Milp.Model.sum
      (List.init (Array.length cell.cands) (fun c ->
           Milp.Model.term
             (float_of_int (cell.xy.((c * cell.npins * 4) + at) - shift))
             lambda.(owner).(c)))
  end

(* The MILP is formulated in problem-relative coordinates: the minimum
   corner over every pin position (fixed and candidate) is subtracted from
   all geometry. The objective and every predicate are translation-
   invariant, and the smaller coefficient magnitudes keep the dense Big-M
   simplex numerically comfortable next to the big-G indicator rows. *)
let problem_origin (t : Wproblem.t) =
  let x0 = ref max_int and y0 = ref max_int in
  let see x_lo y =
    if x_lo < !x0 then x0 := x_lo;
    if y < !y0 then y0 := y
  in
  for q = 0 to (Array.length t.pins / Wproblem.pin_stride) - 1 do
    let k = q * Wproblem.pin_stride in
    let owner = t.pins.(k) in
    if owner < 0 then see t.pins.(k + 3) t.pins.(k + 5)
    else begin
      let cell = t.cells.(owner) in
      for c = 0 to Array.length cell.cands - 1 do
        let o = (c * cell.npins * 4) + t.pins.(k + 1) in
        see cell.xy.(o + 1) cell.xy.(o + 3)
      done
    end
  done;
  if !x0 = max_int then (0, 0) else (!x0, !y0)

let build (t : Wproblem.t) =
  let m = Milp.Model.create () in
  let params = t.params in
  let tech = t.placement.Place.Placement.tech in
  let row_h = float_of_int tech.Pdk.Tech.row_height in
  let x0, y0 = problem_origin t in
  (* lambda variables, constraint (5) *)
  let lambda =
    Array.mapi
      (fun c (cell : Wproblem.cell) ->
        Array.init (Array.length cell.cands) (fun k ->
            Milp.Model.binary m (Printf.sprintf "l_%d_%d" c k)))
      t.cells
  in
  let ax q = pin_expr t lambda q 0 x0 in
  let x_lo q = pin_expr t lambda q 1 x0 in
  let x_hi q = pin_expr t lambda q 2 x0 in
  let ay q = pin_expr t lambda q 3 y0 in
  Array.iter
    (fun lams ->
      Milp.Model.add_eq m
        (Milp.Model.sum (Array.to_list (Array.map Milp.Model.v lams)))
        (Milp.Model.const 1.0))
    lambda;
  (* constraint (9): site disjointness over the window grid *)
  let coverers = Hashtbl.create 256 in
  Array.iteri
    (fun c (cell : Wproblem.cell) ->
      Array.iteri
        (fun k (cand : Wproblem.candidate) ->
          for s = cand.site to cand.site + cell.width - 1 do
            let key = ((cand.row - t.row_lo) * t.bw) + (s - t.site_lo) in
            let prev = Option.value ~default:[] (Hashtbl.find_opt coverers key) in
            Hashtbl.replace coverers key ((c, k) :: prev)
          done)
        cell.cands)
    t.cells;
  (* sorted keys, not hash order, so the constraint system is canonical *)
  Hashtbl.fold (fun key _ acc -> key :: acc) coverers []
  |> List.sort Int.compare
  |> List.iter (fun key ->
         match Hashtbl.find coverers key with
         | [] | [ _ ] -> ()
         | cover ->
           Milp.Model.add_le m
             (Milp.Model.sum
                (List.map (fun (c, k) -> Milp.Model.v lambda.(c).(k)) cover))
             (Milp.Model.const 1.0));
  (* per-net HPWL, constraints (2)-(3) *)
  let hpwl_terms = ref [] in
  Array.iteri
    (fun nidx weight ->
      let xmin = Milp.Model.continuous m (Printf.sprintf "xmin_%d" nidx) in
      let xmax = Milp.Model.continuous m (Printf.sprintf "xmax_%d" nidx) in
      let ymin = Milp.Model.continuous m (Printf.sprintf "ymin_%d" nidx) in
      let ymax = Milp.Model.continuous m (Printf.sprintf "ymax_%d" nidx) in
      for q = t.net_start.(nidx) to t.net_start.(nidx + 1) - 1 do
        let px = ax q in
        let py = ay q in
        Milp.Model.add_ge m (Milp.Model.v xmax) px;
        Milp.Model.add_le m (Milp.Model.v xmin) px;
        Milp.Model.add_ge m (Milp.Model.v ymax) py;
        Milp.Model.add_le m (Milp.Model.v ymin) py
      done;
      let w_n =
        Milp.Model.sum
          [
            Milp.Model.v xmax;
            Milp.Model.scale (-1.0) (Milp.Model.v xmin);
            Milp.Model.v ymax;
            Milp.Model.scale (-1.0) (Milp.Model.v ymin);
          ]
      in
      hpwl_terms :=
        Milp.Model.scale (params.Params.beta *. weight) w_n :: !hpwl_terms)
    t.net_weight;
  (* pair variables *)
  let gain_terms = ref [] in
  for pidx = 0 to Wproblem.num_pairs t - 1 do
    let a = t.pair_pins.(2 * pidx) and b = t.pair_pins.((2 * pidx) + 1) in
    let d = Milp.Model.binary m (Printf.sprintf "d_%d" pidx) in
    let one_minus_d =
      Milp.Model.sub (Milp.Model.const 1.0) (Milp.Model.v d)
    in
    let slack = Milp.Model.scale big_g one_minus_d in
    let py_a = ay a in
    let py_b = ay b in
    let dy = Milp.Model.sub py_a py_b in
    if not t.is_open then begin
      (* ClosedM1, constraint (4) *)
      let px_a = ax a in
      let px_b = ax b in
      let dx = Milp.Model.sub px_a px_b in
      Milp.Model.add_le m dx slack;
      Milp.Model.add_ge m dx (Milp.Model.scale (-1.0) slack);
      let reach =
        Milp.Model.const (float_of_int params.Params.closed_gamma *. row_h)
      in
      Milp.Model.add_le m dy (Milp.Model.add slack reach);
      Milp.Model.add_ge m dy
        (Milp.Model.scale (-1.0) (Milp.Model.add slack reach));
      gain_terms := Milp.Model.term (-.params.Params.alpha) d :: !gain_terms
    end
    else begin
      (* OpenM1, constraints (11)-(14) *)
      let av = Milp.Model.continuous m (Printf.sprintf "a_%d" pidx) in
      let bv = Milp.Model.continuous m (Printf.sprintf "b_%d" pidx) in
      let o = Milp.Model.continuous m (Printf.sprintf "o_%d" pidx) in
      let vpq = Milp.Model.binary m (Printf.sprintf "v_%d" pidx) in
      let lo_a = x_lo a in
      let lo_b = x_lo b in
      let hi_a = x_hi a in
      let hi_b = x_hi b in
      Milp.Model.add_ge m (Milp.Model.v av) lo_a;
      Milp.Model.add_ge m (Milp.Model.v av) lo_b;
      Milp.Model.add_le m (Milp.Model.v bv) hi_a;
      Milp.Model.add_le m (Milp.Model.v bv) hi_b;
      (* (12): |dy| > gamma*H forces v = 1 *)
      let g_v = Milp.Model.scale big_g (Milp.Model.v vpq) in
      let reach =
        Milp.Model.const (float_of_int params.Params.gamma *. row_h)
      in
      Milp.Model.add_le m dy (Milp.Model.add g_v reach);
      Milp.Model.add_ge m dy
        (Milp.Model.scale (-1.0) (Milp.Model.add g_v reach));
      (* (13) *)
      Milp.Model.add_le m (Milp.Model.v o)
        (Milp.Model.add
           (Milp.Model.sub (Milp.Model.sub (Milp.Model.v bv) (Milp.Model.v av))
              (Milp.Model.const (float_of_int params.Params.delta)))
           slack);
      Milp.Model.add_le m (Milp.Model.v o)
        (Milp.Model.scale big_g (Milp.Model.v d));
      Milp.Model.add_ge m (Milp.Model.v o) (Milp.Model.scale (-1.0) slack);
      (* (14) *)
      Milp.Model.add_le m
        (Milp.Model.add (Milp.Model.v d) (Milp.Model.v vpq))
        (Milp.Model.const 1.0);
      (* overlap must reach delta for d = 1: o >= 0 and o <= b-a-delta *)
      gain_terms :=
        Milp.Model.term (-.params.Params.alpha) d
        :: Milp.Model.term (-.params.Params.epsilon) o
        :: !gain_terms
    end
  done;
  Milp.Model.set_objective m
    (Milp.Model.add (Milp.Model.sum !hpwl_terms) (Milp.Model.sum !gain_terms));
  { model = m; lambda }

let verify = ref false

exception Verify_failed of string list

let solve ?node_limit (t : Wproblem.t) =
  let { model; lambda } = build t in
  let sol = Milp.Bnb.solve ?node_limit model in
  (match sol.Milp.Bnb.status with
  | Milp.Bnb.Infeasible -> ()
  | Milp.Bnb.Optimal | Milp.Bnb.Node_limit ->
    if !verify then begin
      match Milp.Model.check model sol.Milp.Bnb.values with
      | [] -> ()
      | problems -> raise (Verify_failed problems)
    end;
    Array.iteri
      (fun c lams ->
        Array.iteri
          (fun k lam ->
            if sol.Milp.Bnb.values.(Milp.Model.var_index lam) > 0.5 then
              Wproblem.apply t ~cell:c ~cand:k)
          lams)
      lambda);
  sol
