module J = Obs.Json

(* --- job records --- *)

type job_record = {
  jr_seq : int;
  jr_id : string option;
  jr_source : string;
  jr_design : string option;
  jr_solver : string option;
  jr_status : string;
  jr_error_code : string option;
  jr_digest : string option;
  jr_cache : (string * bool) list;
  jr_queue_ms : float;
  jr_execute_ms : float;
}

let job_record_json r =
  J.Obj
    [
      ("schema", J.Str Obs.Schemas.joblog);
      ("seq", J.Int r.jr_seq);
      ("id", match r.jr_id with Some s -> J.Str s | None -> J.Null);
      ("source", J.Str r.jr_source);
      ("design", match r.jr_design with Some s -> J.Str s | None -> J.Null);
      ("solver", match r.jr_solver with Some s -> J.Str s | None -> J.Null);
      ("status", J.Str r.jr_status);
      ( "error_code",
        match r.jr_error_code with Some s -> J.Str s | None -> J.Null );
      ("digest", match r.jr_digest with Some s -> J.Str s | None -> J.Null);
      ("cache", J.Obj (List.map (fun (k, hit) -> (k, J.Bool hit)) r.jr_cache));
      ("queue_ms", J.Float r.jr_queue_ms);
      ("execute_ms", J.Float r.jr_execute_ms);
    ]

(* --- state --- *)

(* Per-span-name running totals, folded from snapshot deltas so a
   scrape is O(new spans), not O(history). *)
type span_tot = { mutable st_calls : int; mutable st_total_ns : int64 }

(* One read of every cumulative metric, plus each gauge's write count
   so a window can tell whether the gauge was set inside it. *)
type sample = {
  s_ns : int64;
  s_metrics : Obs.snapshot;  (* metrics only: [spans = []] *)
  s_gauge_writes : (string * int) list;
}

type t = {
  start_ns : int64;
  mutable seq : int;              (* serve-loop confined *)
  ring : job_record Obs.Ring.t;
  job_log : out_channel option;   (* serve-loop confined *)
  cursor : Obs.cursor;            (* admin-consumer confined *)
  span_aggs : (string, span_tot) Hashtbl.t;  (* admin-consumer confined *)
  mutable samples : sample list;  (* newest first; admin-consumer confined *)
}

let default_ring_capacity = 64

(* 64 samples at least 1 s apart reach back 63 s: the 60 s window *)
let max_samples = 64
let sample_gap_ns = 1_000_000_000L

let take_sample now =
  let m = Obs.metrics () in
  {
    s_ns = now;
    s_metrics = m;
    s_gauge_writes =
      List.map (fun (n, _) -> (n, Obs.Gauge.writes (Obs.gauge n))) m.Obs.gauges;
  }

let create ?(ring_capacity = default_ring_capacity) ?job_log () =
  let now = Obs.now_ns () in
  {
    start_ns = now;
    seq = 0;
    ring = Obs.Ring.create ring_capacity;
    job_log;
    cursor = Obs.cursor ();
    span_aggs = Hashtbl.create 64;
    samples = [ take_sample now ];
  }

let tick ?now_ns t =
  let now = match now_ns with Some x -> x | None -> Obs.now_ns () in
  match t.samples with
  | s :: _ when Int64.sub now s.s_ns < sample_gap_ns -> ()
  | samples ->
    t.samples <-
      take_sample now :: List.filteri (fun i _ -> i < max_samples - 1) samples

let close t = Option.iter close_out t.job_log

(* --- recording (serve loop side) --- *)

let ms_of_ns ns = Int64.to_float ns /. 1e6

let source_kind (job : Protocol.job) =
  match job.Protocol.source with
  | Protocol.Generated _ -> "generated"
  | Protocol.External (Protocol.Inline _) -> "external-inline"
  | Protocol.External (Protocol.Path _) -> "external-path"

let record_of_reply t ~queue_ns ~exec_ns (reply : Protocol.reply) =
  t.seq <- t.seq + 1;
  let jr_queue_ms = ms_of_ns queue_ns
  and jr_execute_ms = ms_of_ns exec_ns in
  match reply with
  | Protocol.Ok { job; result; artifacts; _ } ->
    {
      jr_seq = t.seq;
      jr_id = Some job.Protocol.id;
      jr_source = source_kind job;
      jr_design = Some result.Protocol.r_design;
      jr_solver =
        Option.map Vm1.Scp_solver.mode_to_string job.Protocol.solver;
      jr_status = "ok";
      jr_error_code = None;
      jr_digest = Some result.Protocol.digest;
      jr_cache = artifacts;
      jr_queue_ms;
      jr_execute_ms;
    }
  | Protocol.Err e ->
    {
      jr_seq = t.seq;
      jr_id = e.Protocol.err_id;
      jr_source = "invalid";
      jr_design = None;
      jr_solver = None;
      jr_status = "error";
      jr_error_code = Some (Protocol.error_code_string e.Protocol.code);
      jr_digest = None;
      jr_cache = [];
      jr_queue_ms;
      jr_execute_ms;
    }

let record_job t ~queue_ns ~exec_ns reply =
  let r = record_of_reply t ~queue_ns ~exec_ns reply in
  Obs.Ring.push t.ring r;
  match t.job_log with
  | None -> ()
  | Some oc ->
    output_string oc (J.to_string (job_record_json r));
    output_char oc '\n';
    flush oc

(* --- admin views (read-only over Obs; never bumps a metric) --- *)

let uptime_s t ~now = Int64.to_float (Int64.sub now t.start_ns) /. 1e9

let hist_json (s : Obs.Histogram.snap) =
  J.Obj
    [
      ("count", J.Int s.Obs.Histogram.count);
      ("sum", J.Float s.Obs.Histogram.sum);
      ("p50", J.Float (Obs.Histogram.percentile s 0.50));
      ("p90", J.Float (Obs.Histogram.percentile s 0.90));
      ("p99", J.Float (Obs.Histogram.percentile s 0.99));
    ]

let window_horizons_s = [ 10; 60 ]

(* The newest sample taken at or before [cut], or the oldest one when
   none is that old. *)
let rec base_sample cut = function
  | [ s ] -> s
  | s :: rest -> if Int64.compare s.s_ns cut <= 0 then s else base_sample cut rest
  | [] -> invalid_arg "Telemetry.base_sample: no samples"

type window = {
  w_horizon_s : int;
  w_counters : (string * int) list;
  w_gauges : (string * float option) list;
  w_histograms : (string * Obs.Histogram.snap) list;
}

(* A window is the current cumulative value minus the base sample's; a
   metric registered after the base sample counts from zero. *)
let window_of t ~now (cur : sample) horizon_s =
  let base =
    base_sample
      (Int64.sub now (Int64.of_int (horizon_s * 1_000_000_000)))
      t.samples
  in
  let before l n = List.assoc_opt n l in
  let counter_before = before base.s_metrics.Obs.counters
  and writes_before = before base.s_gauge_writes
  and hist_before = before base.s_metrics.Obs.histograms in
  {
    w_horizon_s = horizon_s;
    w_counters =
      List.map
        (fun (n, c) -> (n, c - Option.value ~default:0 (counter_before n)))
        cur.s_metrics.Obs.counters;
    w_gauges =
      List.map
        (fun (n, g) ->
          let written =
            List.assoc n cur.s_gauge_writes
            > Option.value ~default:0 (writes_before n)
          in
          (n, if written then Some g else None))
        cur.s_metrics.Obs.gauges;
    w_histograms =
      List.map
        (fun (n, (s : Obs.Histogram.snap)) ->
          match hist_before n with
          | None -> (n, s)
          | Some (b : Obs.Histogram.snap) ->
            ( n,
              {
                s with
                counts = Array.map2 ( - ) s.counts b.counts;
                count = s.count - b.count;
                sum = s.sum -. b.sum;
              } ))
        cur.s_metrics.Obs.histograms;
  }

let window ?now_ns t ~horizon_s =
  let now = match now_ns with Some x -> x | None -> Obs.now_ns () in
  window_of t ~now (take_sample now) horizon_s

let window_json w =
  J.Obj
    [
      ("horizon_s", J.Int w.w_horizon_s);
      ("counters", J.Obj (List.map (fun (n, c) -> (n, J.Int c)) w.w_counters));
      ( "gauges",
        J.Obj
          (List.map
             (fun (n, g) ->
               (n, match g with Some x -> J.Float x | None -> J.Null))
             w.w_gauges) );
      ( "histograms",
        J.Obj (List.map (fun (n, s) -> (n, hist_json s)) w.w_histograms) );
    ]

(* Fold spans completed since the previous scrape into the running
   per-name totals, then render every total. Hashtbl iteration order is
   unspecified, so the rows are collected and sorted by name. *)
let spans_json t =
  let delta = Obs.snapshot_delta t.cursor in
  List.iter
    (fun (name, agg) ->
      match Hashtbl.find_opt t.span_aggs name with
      | Some st ->
        st.st_calls <- st.st_calls + agg.Obs.calls;
        st.st_total_ns <- Int64.add st.st_total_ns agg.Obs.total_ns
      | None ->
        Hashtbl.add t.span_aggs name
          { st_calls = agg.Obs.calls; st_total_ns = agg.Obs.total_ns })
    (Obs.aggregate_spans delta.Obs.spans);
  J.Obj
    (List.sort
       (fun (a, _) (b, _) -> String.compare a b)
       (Hashtbl.fold
          (fun name st acc ->
            ( name,
              J.Obj
                [
                  ("calls", J.Int st.st_calls);
                  ("total_ms", J.Float (ms_of_ns st.st_total_ns));
                ] )
            :: acc)
          t.span_aggs []))

let metrics_json t =
  let now = Obs.now_ns () in
  let cur = take_sample now in
  let snap = cur.s_metrics in
  J.Obj
    [
      ("schema", J.Str Obs.Schemas.metrics);
      ("uptime_s", J.Float (uptime_s t ~now));
      ( "cumulative",
        J.Obj
          [
            ( "counters",
              J.Obj (List.map (fun (n, c) -> (n, J.Int c)) snap.Obs.counters)
            );
            ( "gauges",
              J.Obj (List.map (fun (n, g) -> (n, J.Float g)) snap.Obs.gauges)
            );
            ( "histograms",
              J.Obj
                (List.map (fun (n, s) -> (n, hist_json s)) snap.Obs.histograms)
            );
          ] );
      ( "windows",
        J.List
          (List.map
             (fun h -> window_json (window_of t ~now cur h))
             window_horizons_s) );
      ("spans", spans_json t);
    ]

let counter_value name = Obs.Counter.value (Obs.counter name)

let rate_json hits misses =
  let total = hits + misses in
  (* nan prints as null: no traffic yet means no rate, not 0% *)
  let rate =
    if total = 0 then Float.nan else float_of_int hits /. float_of_int total
  in
  J.Obj
    [ ("hits", J.Int hits); ("misses", J.Int misses); ("hit_rate", J.Float rate) ]

let health_json t =
  let now = Obs.now_ns () in
  let stat = Gc.quick_stat () in
  let cache_hits = counter_value "serve.cache_hits"
  and cache_misses = counter_value "serve.cache_misses"
  and wcache_hits = counter_value "distopt.wcache_hits"
  and wcache_misses = counter_value "distopt.wcache_misses" in
  J.Obj
    [
      ("schema", J.Str Obs.Schemas.health);
      ("ready", J.Bool true);
      ("uptime_s", J.Float (uptime_s t ~now));
      ("jobs", J.Int (counter_value "serve.jobs"));
      ("errors", J.Int (counter_value "serve.errors"));
      ( "queue_depth",
        J.Float (Obs.Gauge.value (Obs.gauge "serve.queue_depth")) );
      ("pool_jobs", J.Int (Exec.jobs ()));
      ("artifact_cache", rate_json cache_hits cache_misses);
      ("wcache", rate_json wcache_hits wcache_misses);
      ( "gc",
        J.Obj
          [
            ("minor_words", J.Float stat.Gc.minor_words);
            ("promoted_words", J.Float stat.Gc.promoted_words);
            ("major_words", J.Float stat.Gc.major_words);
            ("minor_collections", J.Int stat.Gc.minor_collections);
            ("major_collections", J.Int stat.Gc.major_collections);
            ("heap_words", J.Int stat.Gc.heap_words);
          ] );
    ]

let jobs_json t =
  let recent = Obs.Ring.to_list t.ring in
  J.Obj
    [
      ("schema", J.Str Obs.Schemas.joblog);
      ("count", J.Int (List.length recent));
      ("recent", J.List (List.map job_record_json recent));
    ]

let handle t verb =
  tick t;
  match String.trim verb with
  | "metrics" -> metrics_json t
  | "health" -> health_json t
  | "jobs" -> jobs_json t
  | other ->
    J.Obj
      [
        ( "error",
          J.Str
            (Printf.sprintf "unknown admin verb %S (metrics|health|jobs)" other)
        );
      ]
