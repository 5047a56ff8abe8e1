(* The per-layer metrics of a traced run. Every workload prints the same
   list in the same order; a layer a workload does not run reads 0.
   Times that the benchmark measures around its own calls differ by
   workload (the flows call each layer directly, serve-mixed reaches
   them through Serve.Engine), so the caller passes those in; the work
   counters come from the program's Obs counters and spans. *)

open Common

type inputs = {
  netlist_generate_s : float;
  place_global_s : float;
  place_row_opt_s : float;
  route_route_s : float;
  route_metrics_s : float;
  vm1_opt_s : float;
  sta_analyze_s : float;
  serve_prepare_hit_ms : float;
  serve_prepare_miss_ms : float;
  serve_execute_ms : float;
  serve_queue_ms : float;
  serve_cache_hit_frac : float;
  serve_cold_frac : float;
  serve_errors : float;
  io_def_parse_ms : float;
  minor_words : float;
  major_collections : float;
  overhead_s : float;
  final_drvs : float;
}

let none =
  {
    netlist_generate_s = 0.0;
    place_global_s = 0.0;
    place_row_opt_s = 0.0;
    route_route_s = 0.0;
    route_metrics_s = 0.0;
    vm1_opt_s = 0.0;
    sta_analyze_s = 0.0;
    serve_prepare_hit_ms = 0.0;
    serve_prepare_miss_ms = 0.0;
    serve_execute_ms = 0.0;
    serve_queue_ms = 0.0;
    serve_cache_hit_frac = 0.0;
    serve_cold_frac = 0.0;
    serve_errors = 0.0;
    io_def_parse_ms = 0.0;
    minor_words = 0.0;
    major_collections = 0.0;
    overhead_s = 0.0;
    final_drvs = 0.0;
  }

let metrics (l : Layers.t) i =
  let c = Layers.counter l in
  let attempts = c "route.subnet_attempts" in
  let windows = c "scp.windows_solved" in
  let wc_hits = c "distopt.wcache_hits" in
  [
    metric "netlist.generate_s" "s" i.netlist_generate_s;
    metric "place.global_s" "s" i.place_global_s;
    metric "place.row_opt_s" "s" i.place_row_opt_s;
    metric "place.legalize_calls" "count" (c "legalize.calls");
    metric "route.route_s" "s" i.route_route_s;
    metric "route.initial_s" "s" (Layers.self_s l "route.initial");
    metric "route.ripup_s" "s" (Layers.self_s l "route.ripup");
    metric "route.metrics_s" "s" i.route_metrics_s;
    metric "route.bq_pushes" "count" (c "route.bq_pushes");
    metric "route.subnet_attempts" "count" attempts;
    metric "route.ripup_nets" "count" (c "route.ripup_nets");
    metric "route.ripup_candidates" "count" (c "route.ripup_candidates");
    metric "route.overflow_edges" "count" (Layers.gauge l "route.overflow_edges");
    metric "route.first_pass_frac" "ratio" (ratio (c "route.subnets") attempts);
    metric "route.pushes_per_attempt" "count"
      (ratio (c "route.bq_pushes") attempts);
    metric "route.minor_words_per_subnet" "words"
      (Layers.gauge l "route.minor_words_per_subnet");
    metric "route.final_drvs" "count" i.final_drvs;
    metric "vm1.opt_s" "s" i.vm1_opt_s;
    metric "vm1.extract_s" "s" (Layers.self_s l "distopt.extract");
    metric "vm1.solve_s" "s" (Layers.self_s l "distopt.solve");
    metric "vm1.windows_solved" "count" windows;
    metric "vm1.moves" "count" (c "scp.moves");
    metric "vm1.moves_per_window" "count" (ratio (c "scp.moves") windows);
    metric "vm1.wcache_hit_frac" "ratio"
      (ratio wc_hits (wc_hits +. c "distopt.wcache_misses"));
    metric "vm1.portfolio_wins.exact" "count" (c "distopt.portfolio_wins.exact");
    metric "vm1.portfolio_wins.greedy" "count"
      (c "distopt.portfolio_wins.greedy");
    metric "vm1.portfolio_wins.anneal" "count"
      (c "distopt.portfolio_wins.anneal");
    metric "vm1.minor_words_per_window" "words"
      (Layers.gauge l "distopt.minor_words_per_window");
    metric "exec.tasks" "count" (c "exec.tasks");
    metric "exec.steals" "count" (c "exec.steals");
    metric "exec.deadline_hits" "count" (c "exec.deadline_hits");
    metric "sta.analyze_s" "s" i.sta_analyze_s;
    metric "serve.prepare_hit_ms" "ms" i.serve_prepare_hit_ms;
    metric "serve.prepare_miss_ms" "ms" i.serve_prepare_miss_ms;
    metric "serve.execute_ms" "ms" i.serve_execute_ms;
    metric "serve.queue_ms" "ms" i.serve_queue_ms;
    metric "serve.cache_hit_frac" "ratio" i.serve_cache_hit_frac;
    metric "serve.cold_frac" "ratio" i.serve_cold_frac;
    metric "serve.errors" "count" i.serve_errors;
    metric "io.def_parse_ms" "ms" i.io_def_parse_ms;
    metric "gc.minor_words" "words" i.minor_words;
    metric "gc.major_collections" "count" i.major_collections;
    metric "trace.overhead_s" "s" i.overhead_s;
  ]
