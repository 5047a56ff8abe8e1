type eval = {
  dm1 : int;
  m1_wl_um : float;
  via12 : int;
  hpwl_um : float;
  rwl_um : float;
  wns_ns : float;
  power_mw : float;
  drvs : int;
  alignments : int;
}

let prepare_placement ?(utilization = 0.75) ?(detailed = true) design =
  let p = Place.Placement.create design ~utilization in
  Place.Global.place p;
  (* the paper's input placements come out of a commercial flow whose
     own detailed placement has already converged; the HPWL-driven row
     DP stands in for that, so the vertical-M1 optimiser is not
     credited with generic wirelength cleanup *)
  if detailed then ignore (Place.Row_opt.optimize ~passes:2 p);
  p

let prepare ?(scale = 8) ?(utilization = 0.75) ?(detailed = true) name arch =
  Obs.with_span "flow.prepare" (fun () ->
      let design = Netlist.Designs.make ~scale name arch in
      prepare_placement ~utilization ~detailed design)

(* [evaluate] that also hands back the route it measured *)
let measure ?clock_ps ?router_config (params : Vm1.Params.t)
    (p : Place.Placement.t) =
  Obs.with_span "flow.evaluate" (fun () ->
  let r = Route.Router.route ?config:router_config p in
  let s = Route.Metrics.summarize r in
  let net_lengths = Route.Metrics.net_lengths r in
  let timing = Sta.Timing.analyze ?clock_ps p.design ~net_lengths in
  let power = Sta.Power.analyze p.design ~net_lengths in
  let counts = Vm1.Objective.counts params p in
  ( {
      dm1 = s.Route.Metrics.dm1;
      m1_wl_um = s.m1_wl_um;
      via12 = s.via12;
      hpwl_um = s.hpwl_um;
      rwl_um = s.rwl_um;
      wns_ns = timing.Sta.Timing.wns_ns;
      power_mw = power.Sta.Power.total_mw;
      drvs = s.drvs;
      alignments = counts.Vm1.Objective.alignments;
    },
    timing.Sta.Timing.clock_ps,
    r ))

let evaluate ?clock_ps ?router_config params p =
  let e, clock_ps, _ = measure ?clock_ps ?router_config params p in
  (e, clock_ps)

type baseline = {
  init : eval;
  clock_ps : float;
}

let baseline ?router_config params p =
  let init, clock_ps, r = measure ?router_config params p in
  ({ init; clock_ps }, r)

type master = {
  placement : Place.Placement.t;
  baseline : baseline;
}

let master ?router_config p =
  let b, r =
    baseline ?router_config (Vm1.Params.default p.Place.Placement.tech) p
  in
  ({ placement = p; baseline = b }, r)

type comparison = {
  design_name : string;
  instances : int;
  alpha : float;
  init : eval;
  final : eval;
  opt_runtime_s : float;
}

let optimise ?router_config ?config (params : Vm1.Params.t) (b : baseline)
    (p : Place.Placement.t) =
  let report = Vm1.Vm1_opt.run ?config params p in
  let final, _ = evaluate ~clock_ps:b.clock_ps ?router_config params p in
  {
    design_name = p.design.Netlist.Design.name;
    instances = Place.Placement.num_instances p;
    alpha = params.Vm1.Params.alpha;
    init = b.init;
    final;
    opt_runtime_s = report.Vm1.Vm1_opt.runtime_s;
  }

let run_comparison ?router_config ?config ?params (p : Place.Placement.t) =
  let params =
    match params with Some ps -> ps | None -> Vm1.Params.default p.tech
  in
  let b, _ = baseline ?router_config params p in
  optimise ?router_config ?config params b p

let delta_pct a b = if abs_float a < 1e-12 then 0.0 else (b -. a) /. a *. 100.0

(* Timing-driven extension (paper future work (ii)): weight each net's
   HPWL by its STA criticality so the optimiser spends displacement on
   timing-relevant nets first. *)
let timing_driven_params ?(boost = 3.0) (params : Vm1.Params.t)
    (p : Place.Placement.t) =
  let r = Route.Router.route p in
  let lengths = Route.Metrics.net_lengths r in
  let crit = Sta.Timing.net_criticality p.design ~net_lengths:lengths in
  let weights = Array.map (fun c -> 1.0 +. (boost *. c *. c)) crit in
  { params with Vm1.Params.net_weights = Some weights }

(* Congestion-aware extension (future work (ii), second criterion): build
   the tile congestion map of a route the caller already made, and tax
   candidates in hot tiles so the optimiser prefers alignments that do
   not pull cells into congested regions. *)
let congestion_cost ?(weight = 2000.0) ?(threshold = 0.6)
    (r : Route.Router.result) =
  let map = Route.Congestion.of_result r in
  let tech = r.grid.Route.Grid.placement.Place.Placement.tech in
  fun ~site ~row ->
    let x = (site * tech.Pdk.Tech.site_width) + (tech.Pdk.Tech.site_width / 2) in
    let y = (row * tech.Pdk.Tech.row_height) + (tech.Pdk.Tech.row_height / 2) in
    let c = Route.Congestion.at map ~x ~y in
    if c > threshold then weight *. (c -. threshold) else 0.0
