(* The Table-2 flow workloads: generate -> global place -> row-DP ->
   route + evaluate -> VM1Opt -> re-route + evaluate, composed here from
   the public entry points of each layer so every layer can be timed
   from outside (spans named bench.<layer>). The result equals
   [Report.Flow.prepare] + [evaluate] + [Vm1.Vm1_opt.run] + [evaluate],
   which is what bin/vm1opt runs; at the default seed the Table-2 row is
   checked against the one vm1opt prints. *)

open Common

type spec = {
  workload : string;
  design : Netlist.Designs.name;
  scale : int;
  sequence : int;
  solver : Vm1.Scp_solver.mode;
  parallel : bool;
  golden : string;
      (** the Table-2 row vm1opt prints at the default seed, runtime
          column dropped, blanks squeezed *)
}

(* vm1opt --design jpeg --scale 10 --jobs 1 *)
let congested =
  {
    workload = "flow-congested";
    design = Netlist.Designs.Jpeg;
    scale = 10;
    sequence = 1;
    solver = `Greedy;
    parallel = false;
    golden =
      "jpeg 5457 1200.0 153 753 (+392.2) 526.5 545.0 (+3.5) 16050 15202 \
       (-5.3) 12289.7 12020.1 (-2.2) 12402.8 12016.6 (-3.1) 0.000 0.000 \
       1.151 1.147 (-0.4) 283 176";
  }

(* vm1opt --design m0 --scale 4 --sequence 5 --solver portfolio
   --parallel --jobs 1 *)
let optimize =
  {
    workload = "flow-optimize";
    design = Netlist.Designs.M0;
    scale = 4;
    sequence = 5;
    solver = `Portfolio;
    parallel = true;
    golden =
      "m0 2480 1200.0 92 401 (+335.9) 332.6 340.1 (+2.2) 7308 6842 (-6.4) \
       4171.7 4035.4 (-3.3) 4033.7 3869.6 (-4.1) 0.000 0.000 0.572 0.570 \
       (-0.3) 0 0";
  }

let utilization = 0.75
let arch = Pdk.Cell_arch.Closed_m1

(* Netlist.Designs keeps its per-design seeds and generator tuning
   private; they are restated here so other workload seeds can feed
   Netlist.Generator.generate with the same tuned config. Every run
   checks that workload seed 0 still reproduces Designs.make. *)
let base_seed = function
  | Netlist.Designs.M0 -> 11
  | Aes -> 23
  | Jpeg -> 37
  | Vga -> 41

let tune name (c : Netlist.Generator.config) =
  match name with
  | Netlist.Designs.M0 -> { c with dff_fraction = 0.14; locality_window = 25 }
  | Aes -> { c with dff_fraction = 0.10; locality_window = 30 }
  | Jpeg ->
    { c with dff_fraction = 0.09; locality_window = 30; global_fraction = 0.015 }
  | Vga ->
    { c with dff_fraction = 0.10; locality_window = 28; global_fraction = 0.01 }

(* workload seed 0 is the Designs.make netlist; seed s uses generator
   seed (design seed + s) *)
let generate lib name ~scale ~seed =
  let n = max 64 (Netlist.Designs.paper_instances name / scale) in
  let config =
    tune name
      (Netlist.Generator.default_config ~n_instances:n
         ~seed:(base_seed name + seed))
  in
  Netlist.Generator.generate lib config ~name:(Netlist.Designs.to_string name)

let netlist_digest (d : Netlist.Design.t) =
  let b = Buffer.create 65536 in
  let int i =
    Buffer.add_string b (string_of_int i);
    Buffer.add_char b ','
  in
  Array.iter
    (fun (i : Netlist.Design.instance) ->
      Buffer.add_string b i.master.Pdk.Stdcell.name;
      Array.iter int i.pin_nets;
      Buffer.add_char b ';')
    d.instances;
  Array.iter
    (fun (n : Netlist.Design.net) ->
      Array.iter
        (fun (r : Netlist.Design.pin_ref) ->
          int r.inst;
          int r.pin)
        n.pins;
      Buffer.add_string b (if n.is_clock then "c;" else ";"))
    d.nets;
  Digest.to_hex (Digest.string (Buffer.contents b))

let placement_digest (p : Place.Placement.t) =
  let b = Buffer.create 65536 in
  Array.iter (fun x -> Buffer.add_string b (string_of_int x ^ ",")) p.xs;
  Array.iter (fun y -> Buffer.add_string b (string_of_int y ^ ",")) p.ys;
  Array.iter
    (fun o -> Buffer.add_string b (Geom.Orient.to_string o ^ ","))
    p.orients;
  Digest.to_hex (Digest.string (Buffer.contents b))

let span = Obs.with_span

let evaluate ?clock_ps params (p : Place.Placement.t) =
  let r = span "bench.route" (fun () -> Route.Router.route p) in
  let s, net_lengths =
    span "bench.route.metrics" (fun () ->
        let s = Route.Metrics.summarize r in
        (s, Route.Metrics.net_lengths r))
  in
  let timing, power =
    span "bench.sta" (fun () ->
        let timing = Sta.Timing.analyze ?clock_ps p.design ~net_lengths in
        (timing, Sta.Power.analyze p.design ~net_lengths))
  in
  let counts = span "bench.objective" (fun () -> Vm1.Objective.counts params p) in
  ( {
      Report.Flow.dm1 = s.Route.Metrics.dm1;
      m1_wl_um = s.m1_wl_um;
      via12 = s.via12;
      hpwl_um = s.hpwl_um;
      rwl_um = s.rwl_um;
      wns_ns = timing.Sta.Timing.wns_ns;
      power_mw = power.Sta.Power.total_mw;
      drvs = s.drvs;
      alignments = counts.Vm1.Objective.alignments;
    },
    timing.Sta.Timing.clock_ps )

type outcome = {
  row : string;  (** Table-2 row without the runtime column *)
  final : Report.Flow.eval;
  digest : string;
  illegal : string list;  (** Place.Legalize.check findings *)
  seconds : float;
}

let squeeze s =
  String.split_on_char ' ' s |> List.filter (( <> ) "") |> String.concat " "

(* the data line of vm1opt's Table-2 rendering, minus the runtime *)
let table2_row (c : Report.Flow.comparison) =
  let lines =
    String.split_on_char '\n' (Report.Expt.Table2.render [ c ])
    |> List.filter (fun l -> String.trim l <> "")
  in
  let tokens =
    String.split_on_char ' ' (List.nth lines (List.length lines - 1))
    |> List.filter (( <> ) "")
  in
  String.concat " " (List.filteri (fun i _ -> i < List.length tokens - 1) tokens)

let run_flow spec design =
  Gc.full_major ();
  let t0 = now_s () in
  let p, init, final, report =
    span "bench.flow" (fun () ->
        let p =
          span "bench.prepare" (fun () ->
              let p = Place.Placement.create design ~utilization in
              span "bench.place.global" (fun () -> Place.Global.place p);
              ignore
                (span "bench.place.row_opt" (fun () ->
                     Place.Row_opt.optimize ~passes:2 p));
              p)
        in
        let params = Vm1.Params.default p.tech in
        let init, clock_ps =
          span "bench.evaluate" (fun () -> evaluate params p)
        in
        let config =
          { Vm1.Vm1_opt.default_config with
            Vm1.Vm1_opt.sequence = Vm1.Params.sequence spec.sequence;
            mode = spec.solver;
            parallel = spec.parallel }
        in
        let report =
          span "bench.vm1opt" (fun () -> Vm1.Vm1_opt.run ~config params p)
        in
        let final, _ =
          span "bench.evaluate" (fun () -> evaluate ~clock_ps params p)
        in
        (p, init, final, report))
  in
  let seconds = now_s () -. t0 in
  let row =
    table2_row
      {
        Report.Flow.design_name = p.design.Netlist.Design.name;
        instances = Place.Placement.num_instances p;
        alpha = (Vm1.Params.default p.tech).Vm1.Params.alpha;
        init;
        final;
        opt_runtime_s = report.Vm1.Vm1_opt.runtime_s;
      }
  in
  { row; final; digest = placement_digest p;
    illegal = Place.Legalize.check p; seconds }

(* Problems of one flow: an illegal placement, a result that differs
   from [first], or — on the Designs.make netlist — a Table-2 row that
   differs from vm1opt's. *)
let check spec ~netlist_seed ~first (o : outcome) =
  List.map (fun v -> "illegal placement: " ^ v) o.illegal
  @ (match first with
    | Some f when f.row <> o.row || f.digest <> o.digest ->
      [ Printf.sprintf "flow not deterministic: %s/%s vs %s/%s" o.row o.digest
          f.row f.digest ]
    | _ -> [])
  @
  if netlist_seed = 0 && o.row <> squeeze spec.golden then
    [ Printf.sprintf "Table-2 row %S differs from vm1opt's %S" o.row
        (squeeze spec.golden) ]
  else []

(* Set-up: the library and netlist generation a flow starts from. *)
let make_design spec ~netlist_seed =
  span "bench.netlist.generate" (fun () ->
      let lib = Pdk.Libgen.generate (Pdk.Tech.default arch) in
      generate lib spec.design ~scale:spec.scale ~seed:netlist_seed)

(* Set-up repeated [setups] times for a steady median. Returns the
   design, the samples, and a problem if netlist seed 0 no longer
   reproduces Designs.make. *)
let setups = 50

let set_up spec ~netlist_seed =
  let design, first = timed (fun () -> make_design spec ~netlist_seed) in
  let samples =
    first
    :: List.init (setups - 1) (fun _ ->
           snd (timed (fun () -> make_design spec ~netlist_seed)))
  in
  let drift =
    let lib = design.Netlist.Design.lib in
    let reference = Netlist.Designs.make ~lib ~scale:spec.scale spec.design arch in
    let seed0 =
      if netlist_seed = 0 then design
      else generate lib spec.design ~scale:spec.scale ~seed:0
    in
    if netlist_digest reference <> netlist_digest seed0 then
      [ "netlist seed 0 no longer reproduces Netlist.Designs.make" ]
    else []
  in
  (design, samples, drift)

let run spec ~seed ~netlist_seed ~seconds ~trace ~vm1trace ~out_dir =
  (* One domain, as on serve-mixed. On this 2-vCPU host a pool of 2
     made jpeg/10 slower and m0/4 about 10% faster, and made flow times
     and peak memory vary from run to run by up to 40% and 10% with the
     timing of the second domain; on one domain both repeat. *)
  Exec.set_jobs 1;
  let host = host () in
  let t = tally () in
  slice host;
  let design, setup_samples, drift = set_up spec ~netlist_seed in
  slice host;
  let check = check spec ~netlist_seed in
  let t0 = now_s () in
  let first = run_flow spec design in
  record t (drift @ check ~first:None first);
  (* peak memory of set-up plus one flow, as one vm1opt run has it *)
  let rss = Option.value ~default:0.0 (peak_rss_mb "self") in
  if not trace then begin
    (* at least two flows, so every run checks repeatability; a
       reference slice follows a flow once a tenth of [seconds] has
       passed since the last one, and the last flow *)
    let last_slice = ref t0 in
    let rec more acc =
      let stop = List.length acc >= 2 && now_s () -. t0 >= seconds in
      if stop || now_s () -. !last_slice >= seconds /. 10.0 then begin
        slice host;
        last_slice := now_s ()
      end;
      if stop then List.rev acc
      else begin
        let o = run_flow spec design in
        record t (check ~first:(Some first) o);
        more (o.seconds :: acc)
      end
    in
    let raw = more [ first.seconds ] in
    let secs = List.map (scaled host) raw in
    Printf.printf "flow times (s), raw:%s\n"
      (String.concat "" (List.map (Printf.sprintf " %.3f") raw));
    Printf.printf "set-up (s), raw median: %.4f\n" (median setup_samples);
    print_slices host;
    let busy = List.fold_left ( +. ) 0.0 secs in
    finish ~workload:spec.workload ~seed t
      [
        metric "flow_s" "s" (median secs);
        metric "job_p50_ms" "ms" (1000.0 *. median secs);
        metric "job_p90_ms" "ms" (1000.0 *. percentile 0.9 secs);
        metric "jobs_per_s" "1/s" (float_of_int (List.length secs) /. busy);
        metric "final_dm1" "count" (float_of_int first.final.dm1);
        metric "final_via12" "count" (float_of_int first.final.via12);
        metric "final_rwl_um" "um" first.final.rwl_um;
        metric "setup_s" "s" (scaled host (median setup_samples));
        metric "peak_rss_mb" "MiB" rss;
      ]
  end
  else begin
    (* the same flow again untraced, then traced, both on the heap the
       first flow grew (a process's first flow also pays for growing
       it): all three must agree exactly, and the last two differ in
       time by the tracing overhead *)
    let plain = run_flow spec design in
    record t (check ~first:(Some first) plain);
    Obs.set_enabled true;
    Obs.reset ();
    let g0 = Gc.quick_stat () in
    let traced = run_flow spec (make_design spec ~netlist_seed) in
    let g1 = Gc.quick_stat () in
    Obs.set_enabled false;
    let snap = Obs.snapshot () in
    let path =
      Filename.concat out_dir
        (Printf.sprintf "%s-seed%d.trace.json" spec.workload seed)
    in
    record t (check ~first:(Some first) traced
              @ write_and_check_trace ~vm1trace path);
    let l = Layers.of_snapshot snap in
    let minor_words, major_collections = gc_delta g0 g1 in
    let overhead_s = traced.seconds -. plain.seconds in
    Printf.printf "flow_s untraced %.3f s, traced %.3f s (overhead %+.3f s)\n"
      plain.seconds traced.seconds overhead_s;
    finish ~workload:spec.workload ~seed t
      (Layer_metrics.metrics l
         {
           Layer_metrics.none with
           netlist_generate_s = Layers.total_s l "bench.netlist.generate";
           place_global_s = Layers.total_s l "bench.place.global";
           place_row_opt_s = Layers.total_s l "bench.place.row_opt";
           route_route_s = Layers.total_s l "bench.route";
           route_metrics_s = Layers.total_s l "bench.route.metrics";
           vm1_opt_s = Layers.total_s l "bench.vm1opt";
           sta_analyze_s = Layers.total_s l "bench.sta";
           minor_words;
           major_collections;
           overhead_s;
           final_drvs = float_of_int traced.final.drvs;
         })
  end
