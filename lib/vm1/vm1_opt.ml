type wcache_policy =
  | Fresh_wcache
  | Shared_wcache of Wcache.t

type config = {
  sequence : Params.step list;
  mode : Scp_solver.mode;
  parallel : bool;
  candidate_cost : (site:int -> row:int -> float) option;
  wcache : wcache_policy;
}

(* safety bound on the inner while loop of each sequence step *)
let max_inner_iters = 6

let default_config =
  {
    sequence = Params.default_sequence;
    mode = `Greedy;
    parallel = false;
    candidate_cost = None;
    wcache = Fresh_wcache;
  }

type iteration = {
  step_index : int;
  objective : float;
  delta : float;
  moves : int;
}

type report = {
  initial_objective : float;
  final_objective : float;
  iterations : iteration list;
  runtime_s : float;
}

let run ?(config = default_config) (params : Params.t)
    (p : Place.Placement.t) =
  Obs.with_span "vm1opt.run" (fun () ->
  let t_start = Obs.now_ns () in
  (* resolved once so every DistOpt pass of the whole run shares one
     cache: the grid shifts by half a window per iteration, so converged
     windows recur with identical content and replay instead of re-solve *)
  let wcache =
    match config.wcache with
    | Fresh_wcache -> Some (Wcache.create ())
    | Shared_wcache c -> Some c
  in
  let tech = p.tech in
  let sw = tech.Pdk.Tech.site_width and rh = tech.Pdk.Tech.row_height in
  let initial_objective = Objective.value params p in
  let iterations = ref [] in
  let tx = ref 0 and ty = ref 0 in
  List.iteri
    (fun step_index (u : Params.step) ->
      Obs.with_span "vm1opt.step"
        ~attrs:
          [ ("step_index", `Int step_index); ("bw_um", `Float u.bw_um);
            ("lx", `Int u.lx); ("ly", `Int u.ly) ]
        (fun () ->
      let bw_dbu = int_of_float (u.bw_um *. 1000.0) in
      let bw = max (2 * (u.lx + 4)) (bw_dbu / sw) in
      let bh = max (2 * (u.ly + 1)) (bw_dbu / rh) in
      let obj = ref (Objective.value params p) in
      let delta = ref infinity in
      let inner = ref 0 in
      while !delta >= params.Params.theta && !inner < max_inner_iters do
        incr inner;
        Obs.Counter.incr (Obs.counter "vm1opt.iterations");
        let pre_obj = !obj in
        (* perturbation pass: moves allowed, no flipping *)
        let s1 =
          Dist_opt.run p params
            {
              Dist_opt.tx = !tx;
              ty = !ty;
              bw;
              bh;
              lx = u.lx;
              ly = u.ly;
              allow_flip = false;
              allow_move = true;
              mode = config.mode;
              parallel = config.parallel;
              candidate_cost = config.candidate_cost;
              wcache;
            }
        in
        (* flipping pass: orientation only *)
        let s2 =
          Dist_opt.run p params
            {
              Dist_opt.tx = !tx;
              ty = !ty;
              bw;
              bh;
              lx = 0;
              ly = 0;
              allow_flip = true;
              allow_move = false;
              mode = config.mode;
              parallel = config.parallel;
              candidate_cost = config.candidate_cost;
              wcache;
            }
        in
        (* shift the window grid to free boundary cells next iteration *)
        tx := (!tx + (bw / 2)) mod bw;
        ty := (!ty + (bh / 2)) mod bh;
        obj := Objective.value params p;
        delta :=
          if abs_float pre_obj > 1e-9 then (pre_obj -. !obj) /. abs_float pre_obj
          else 0.0;
        iterations :=
          {
            step_index;
            objective = !obj;
            delta = !delta;
            moves = s1.Dist_opt.total_moves + s2.Dist_opt.total_moves;
          }
          :: !iterations
      done;
      Obs.add_attr "objective" (`Float !obj);
      Obs.add_attr "inner_iters" (`Int !inner)))
    config.sequence;
  let final_objective = Objective.value params p in
  Obs.Gauge.set (Obs.gauge "vm1opt.initial_objective") initial_objective;
  Obs.Gauge.set (Obs.gauge "vm1opt.final_objective") final_objective;
  {
    initial_objective;
    final_objective;
    iterations = List.rev !iterations;
    runtime_s =
      Int64.to_float (Int64.sub (Obs.now_ns ()) t_start) /. 1e9;
  })
