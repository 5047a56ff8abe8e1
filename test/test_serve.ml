(* The batch service (lib/serve): protocol codec round-trips and
   negative paths, artifact-cache correctness (a cache hit must change
   nothing but latency), and the daemon loop's ordering and robustness
   guarantees. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let job id = Serve.Protocol.generated_job ~id ~scale:64 Netlist.Designs.M0

(* --- protocol codec --- *)

let test_job_roundtrip () =
  let j =
    Serve.Protocol.generated_job ~id:"rt" ~arch:Pdk.Cell_arch.Open_m1
      ~scale:16 ~util:0.8 ~alpha:600. ~sequence:3 ~want_trace:true
      Netlist.Designs.M0
  in
  match Serve.Protocol.parse_job (Serve.Protocol.encode_job j) with
  | Error e -> Alcotest.fail ("round-trip rejected: " ^ e.Serve.Protocol.message)
  | Ok j' ->
    checks "round-trip" (Serve.Protocol.encode_job j)
      (Serve.Protocol.encode_job j')

let test_defaults_applied () =
  match
    Serve.Protocol.parse_job
      {|{"schema":"vm1dp-jobs/1","id":"d","design":"m0"}|}
  with
  | Error e -> Alcotest.fail e.Serve.Protocol.message
  | Ok j ->
    checks "id" "d" j.Serve.Protocol.id;
    (match j.Serve.Protocol.source with
    | Serve.Protocol.Generated { design; scale; util } ->
      checkb "design" true (design = Netlist.Designs.M0);
      check "scale" 8 scale;
      checkb "util" true (util = 0.75)
    | Serve.Protocol.External _ -> Alcotest.fail "expected a generated job");
    checkb "arch" true
      (Pdk.Cell_arch.equal j.Serve.Protocol.arch Pdk.Cell_arch.Closed_m1);
    checkb "alpha" true (j.Serve.Protocol.alpha = None);
    check "sequence" 1 j.Serve.Protocol.sequence;
    checkb "trace" false j.Serve.Protocol.want_trace

let expect_error ~code line =
  match Serve.Protocol.parse_job line with
  | Ok _ -> Alcotest.fail ("accepted: " ^ line)
  | Error e ->
    checks "error code"
      (Serve.Protocol.error_code_string code)
      (Serve.Protocol.error_code_string e.Serve.Protocol.code);
    e

let test_truncated_line () =
  let e = expect_error ~code:Serve.Protocol.Parse_error {|{"schema":"vm1|} in
  checkb "no id extracted" true (e.Serve.Protocol.err_id = None)

let test_not_an_object () =
  ignore (expect_error ~code:Serve.Protocol.Parse_error "42")

let test_unknown_schema () =
  ignore
    (expect_error ~code:Serve.Protocol.Unsupported_schema
       {|{"schema":"vm1dp-jobs/999","id":"x","design":"m0"}|});
  ignore
    (expect_error ~code:Serve.Protocol.Unsupported_schema
       {|{"id":"x","design":"m0"}|})

let test_bad_fields () =
  (* id still extracted so the client can correlate the error reply *)
  let e =
    expect_error ~code:Serve.Protocol.Bad_request
      {|{"schema":"vm1dp-jobs/1","id":"b1","design":"m0","scale":"big"}|}
  in
  checkb "id extracted" true (e.Serve.Protocol.err_id = Some "b1");
  ignore
    (expect_error ~code:Serve.Protocol.Bad_request
       {|{"schema":"vm1dp-jobs/1","id":"b2","design":"nosuch"}|});
  ignore
    (expect_error ~code:Serve.Protocol.Bad_request
       {|{"schema":"vm1dp-jobs/1","id":"b3","design":"m0","util":1.5}|});
  ignore
    (expect_error ~code:Serve.Protocol.Bad_request
       {|{"schema":"vm1dp-jobs/1","id":"b4","design":"m0","sequence":9}|})

(* exact search refuses the flow's windows, so it is no job solver: the
   request is the client's fault, not a server fault *)
let test_removed_solver_modes () =
  List.iter
    (fun mode ->
      let e =
        expect_error ~code:Serve.Protocol.Bad_request
          (Printf.sprintf
             {|{"schema":"vm1dp-jobs/1","id":"s1","design":"m0","solver":"%s"}|}
             mode)
      in
      checkb "id extracted" true (e.Serve.Protocol.err_id = Some "s1"))
    [ "exact"; "auto" ]

let test_external_field_rules () =
  (* exactly one of design / def / def_path *)
  ignore
    (expect_error ~code:Serve.Protocol.Bad_request
       {|{"schema":"vm1dp-jobs/1","id":"x1","design":"m0","def":"DESIGN"}|});
  ignore
    (expect_error ~code:Serve.Protocol.Bad_request
       {|{"schema":"vm1dp-jobs/1","id":"x2","def":"D","def_path":"a.def"}|});
  ignore
    (expect_error ~code:Serve.Protocol.Bad_request
       {|{"schema":"vm1dp-jobs/1","id":"x3"}|});
  (* generator axes are meaningless on a fixed external placement *)
  ignore
    (expect_error ~code:Serve.Protocol.Bad_request
       {|{"schema":"vm1dp-jobs/1","id":"x4","def":"D","scale":4}|});
  ignore
    (expect_error ~code:Serve.Protocol.Bad_request
       {|{"schema":"vm1dp-jobs/1","id":"x5","def_path":"a.def","util":0.7}|})

let test_external_job_roundtrip () =
  List.iter
    (fun source ->
      let j =
        {
          Serve.Protocol.id = "ext";
          source;
          arch = Pdk.Cell_arch.Open_m1;
          alpha = Some 500.;
          sequence = 2;
          solver = None;
          want_trace = false;
        }
      in
      match Serve.Protocol.parse_job (Serve.Protocol.encode_job j) with
      | Error e ->
        Alcotest.fail ("round-trip rejected: " ^ e.Serve.Protocol.message)
      | Ok j' ->
        checks "round-trip" (Serve.Protocol.encode_job j)
          (Serve.Protocol.encode_job j'))
    [
      Serve.Protocol.External (Serve.Protocol.Inline "DESIGN fake ;");
      Serve.Protocol.External (Serve.Protocol.Path "designs/a.def");
    ]

let test_error_reply_roundtrip () =
  let e =
    {
      Serve.Protocol.code = Serve.Protocol.Bad_request;
      message = "no";
      err_id = Some "x";
    }
  in
  match Serve.Protocol.parse_reply (Serve.Protocol.encode_reply (Err e)) with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
    checks "status" "error" r.Serve.Protocol.p_status;
    checkb "code" true
      (r.Serve.Protocol.p_error_code = Some "bad_request");
    checkb "id" true (r.Serve.Protocol.p_id = Some "x")

(* --- artifact cache --- *)

let result_bytes = function
  | Serve.Protocol.Ok o -> Obs.Json.to_string (Serve.Protocol.result_json o.result)
  | Serve.Protocol.Err e -> Alcotest.fail e.Serve.Protocol.message

let artifacts = function
  | Serve.Protocol.Ok o -> o.artifacts
  | Serve.Protocol.Err e -> Alcotest.fail e.Serve.Protocol.message

(* A fresh cache per pool size: every cold (miss) and warm (hit) run,
   at every --jobs, must give the bytes of the first cold run. *)
let test_cold_warm_identical () =
  let jobs0 = Exec.jobs () in
  let reference = ref None in
  let same_bytes what reply =
    let b = result_bytes reply in
    match !reference with
    | None -> reference := Some b
    | Some want -> checks what want b
  in
  Fun.protect
    ~finally:(fun () -> Exec.set_jobs jobs0)
    (fun () ->
      List.iter
        (fun jobs ->
          Exec.set_jobs jobs;
          let cache = Serve.Cache.create () in
          let cold = Serve.Engine.run cache (job "c") in
          let warm = Serve.Engine.run cache (job "c") in
          checks "resolved stores" "library,netlist,placement"
            (String.concat "," (List.map fst (artifacts cold)));
          checkb "cold run misses" true
            (List.for_all (fun (_, h) -> not h) (artifacts cold));
          checkb "warm run hits" true (List.for_all snd (artifacts warm));
          same_bytes (Printf.sprintf "cold bytes at jobs=%d" jobs) cold;
          same_bytes (Printf.sprintf "warm bytes at jobs=%d" jobs) warm)
        [ 1; 2; 4 ])

let test_cache_stats_count () =
  let cache = Serve.Cache.create () in
  ignore (Serve.Engine.run cache (job "a"));
  ignore (Serve.Engine.run cache (job "b"));
  List.iter
    (fun (name, hits, misses) ->
      (* generated jobs never consult the external-DEF store *)
      let expected = if String.equal name "external" then 0 else 1 in
      check (name ^ " misses") expected misses;
      check (name ^ " hits") expected hits)
    (Serve.Cache.stats cache)

(* A served job is the one-shot flow: its reply's [init] and [final]
   equal [Report.Flow.run_comparison] on the same prepared placement,
   which builds every routing grid with the router's default config. *)
let test_served_equals_one_shot () =
  let o =
    match Serve.Engine.run (Serve.Cache.create ()) (job "o") with
    | Serve.Protocol.Ok o -> o.result
    | Serve.Protocol.Err e -> Alcotest.fail e.Serve.Protocol.message
  in
  let c =
    Report.Flow.run_comparison
      (Report.Flow.prepare ~scale:64 Netlist.Designs.M0
         Pdk.Cell_arch.Closed_m1)
  in
  checkb "init equals one-shot" true (o.Serve.Protocol.init = c.Report.Flow.init);
  checkb "final equals one-shot" true
    (o.Serve.Protocol.final = c.Report.Flow.final)

(* --- external-placement jobs --- *)

let external_job ?(id = "e") source =
  {
    Serve.Protocol.id;
    source = Serve.Protocol.External source;
    arch = Pdk.Cell_arch.Closed_m1;
    alpha = None;
    sequence = 1;
    solver = None;
    want_trace = false;
  }

(* The DEF an external job would round-trip: the same prepared
   placement the generated path computes, emitted by the codec. *)
let external_def_text () =
  let p = Report.Flow.prepare ~scale:64 Netlist.Designs.M0 Pdk.Cell_arch.Closed_m1 in
  Io.Def.write p.Place.Placement.design (Place.Placement.to_def p)

let run_ok reply =
  match reply with
  | Serve.Protocol.Ok { result; artifacts; _ } -> (result, artifacts)
  | Serve.Protocol.Err e -> Alcotest.fail e.Serve.Protocol.message

let test_external_inline_job () =
  let text = external_def_text () in
  let cache = Serve.Cache.create () in
  let result, arts =
    run_ok (Serve.Engine.run cache (external_job (Serve.Protocol.Inline text)))
  in
  checks "design from DEF" "m0" result.Serve.Protocol.r_design;
  checkb "scale is null" true (result.Serve.Protocol.r_scale = None);
  checkb "util is null" true (result.Serve.Protocol.r_util = None);
  checks "resolved stores" "library,external"
    (String.concat "," (List.map fst arts));
  (* the external ingest of our own emitted DEF must optimise to the
     same placement as the generated job it was derived from *)
  let gen, _ = run_ok (Serve.Engine.run (Serve.Cache.create ()) (job "g")) in
  checks "same final digest" gen.Serve.Protocol.digest
    result.Serve.Protocol.digest

let test_external_job_cache_hit () =
  let text = external_def_text () in
  let cache = Serve.Cache.create () in
  let cold, cold_arts =
    run_ok
      (Serve.Engine.run cache
         (external_job ~id:"c1" (Serve.Protocol.Inline text)))
  in
  let warm, warm_arts =
    run_ok
      (Serve.Engine.run cache
         (external_job ~id:"c2" (Serve.Protocol.Inline text)))
  in
  checkb "cold run misses" true (List.for_all (fun (_, h) -> not h) cold_arts);
  checkb "warm run hits" true (List.for_all snd warm_arts);
  checks "byte-identical results"
    (Obs.Json.to_string (Serve.Protocol.result_json cold))
    (Obs.Json.to_string (Serve.Protocol.result_json warm))

let expect_bad_request reply =
  match reply with
  | Serve.Protocol.Ok _ -> Alcotest.fail "expected bad_request"
  | Serve.Protocol.Err e ->
    checks "code" "bad_request"
      (Serve.Protocol.error_code_string e.Serve.Protocol.code)

let test_external_path_job () =
  let path = Filename.temp_file "vm1dp_test" ".def" in
  let oc = open_out_bin path in
  output_string oc (external_def_text ());
  close_out oc;
  let cache = Serve.Cache.create () in
  let result, _ =
    run_ok (Serve.Engine.run cache (external_job (Serve.Protocol.Path path)))
  in
  Sys.remove path;
  checks "design from DEF" "m0" result.Serve.Protocol.r_design;
  (* a dangling path is the client's fault, not an internal error *)
  expect_bad_request
    (Serve.Engine.run cache (external_job (Serve.Protocol.Path path)))

let test_external_rejects_bad_def () =
  let cache = Serve.Cache.create () in
  expect_bad_request
    (Serve.Engine.run cache (external_job (Serve.Protocol.Inline "garbage")));
  (* well-formed DEF, but bound against a library missing its master *)
  let text =
    Str.global_replace (Str.regexp_string "INV_X") "BOGUS_X"
      (external_def_text ())
  in
  expect_bad_request
    (Serve.Engine.run cache (external_job (Serve.Protocol.Inline text)))

(* --- baseline reuse --- *)

let c_subnets = Obs.counter "route.subnets"

(* route.subnets added by [f], with observability on *)
let subnets_of f =
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () ->
      let before = Obs.Counter.value c_subnets in
      let v = f () in
      (v, Obs.Counter.value c_subnets - before))

(* one route of the m0/64 placement every job below starts from: a
   route's subnet count depends only on the netlist *)
let one_route_subnets =
  lazy
    (snd
       (subnets_of (fun () ->
            Route.Router.route
              (Report.Flow.prepare ~scale:64 Netlist.Designs.M0
                 Pdk.Cell_arch.Closed_m1))))

(* After [first] ran on a cache, [second] — same placement, other
   alpha, sequence and solver — must reply with the bytes it gets from a
   fresh cache, and must route only its optimised placement: one
   route's subnets, where the fresh-cache run adds two. *)
let check_baseline_reuse ~first ~second =
  let cache = Serve.Cache.create () in
  ignore (result_bytes (Serve.Engine.run cache first));
  let warm, warm_subnets =
    subnets_of (fun () -> result_bytes (Serve.Engine.run cache second))
  in
  let cold, cold_subnets =
    subnets_of (fun () ->
        result_bytes (Serve.Engine.run (Serve.Cache.create ()) second))
  in
  let one = Lazy.force one_route_subnets in
  checkb "a route has subnets" true (one > 0);
  checks "warm result = fresh-cache result" cold warm;
  check "warm job routes once" one warm_subnets;
  check "fresh-cache job routes twice" (2 * one) cold_subnets

let vary (j : Serve.Protocol.job) =
  { j with
    Serve.Protocol.id = "v";
    alpha = Some 600.;
    sequence = 2;
    solver = Some `Portfolio }

let test_baseline_reuse_generated () =
  check_baseline_reuse ~first:(job "f") ~second:(vary (job "s"))

let test_baseline_reuse_external () =
  let ext = external_job (Serve.Protocol.Inline (external_def_text ())) in
  check_baseline_reuse ~first:ext ~second:(vary ext)

(* --- daemon loop --- *)

let serve_lines ?telemetry ?(on_reply = fun () -> ()) lines =
  let remaining = ref lines in
  let replies = ref [] in
  let stats =
    Serve.Daemon.serve ?telemetry
      (Serve.Cache.create ())
      ~next_line:(fun () ->
        match !remaining with
        | [] -> None
        | l :: rest ->
          remaining := rest;
          Some l)
      ~emit:(fun line ->
        replies := line :: !replies;
        on_reply ())
      ()
  in
  (stats, List.rev !replies)

let reply_id line =
  match Serve.Protocol.parse_reply line with
  | Ok r -> Option.value ~default:"?" r.Serve.Protocol.p_id
  | Error msg -> Alcotest.fail msg

let test_daemon_survives_bad_input () =
  let stats, replies =
    serve_lines
      [
        Serve.Protocol.encode_job (job "j1");
        "{\"truncated";
        {|{"schema":"vm1dp-jobs/1","id":"j2","design":"m0","scale":"x"}|};
        Serve.Protocol.encode_job (job "j3");
      ]
  in
  check "all lines answered" 4 (List.length replies);
  check "jobs" 4 stats.Serve.Daemon.jobs;
  check "ok" 2 stats.Serve.Daemon.ok;
  check "errors" 2 stats.Serve.Daemon.errors;
  (* replies in request order, ids echoed where extractable *)
  checks "order" "j1,?,j2,j3"
    (String.concat "," (List.map reply_id replies))

let test_daemon_order_under_concurrency () =
  let ids = List.init 8 (fun i -> Printf.sprintf "k%d" i) in
  let _, replies = serve_lines (List.map (fun i -> Serve.Protocol.encode_job (job i)) ids) in
  checks "request order preserved" (String.concat "," ids)
    (String.concat "," (List.map reply_id replies))

let test_traced_job_carries_trace () =
  let j = { (job "t") with Serve.Protocol.want_trace = true } in
  let _, replies = serve_lines [ Serve.Protocol.encode_job j ] in
  match replies with
  | [ line ] ->
    checkb "reply has trace" true
      (match Obs.Json.parse line with
      | Ok json -> Obs.Json.member "trace" json <> None
      | Error _ -> false)
  | _ -> Alcotest.fail "expected one reply"

(* --- telemetry --- *)

(* The scrape-does-not-perturb invariant: serving a stream with full
   telemetry on (observability + windows + a metrics/health scrape after
   every reply) must produce result payloads byte-identical to a plain
   run with everything off. The byte-identity contract quantifies over
   the "result" member — latency fields are wall clock. *)
let result_members replies =
  List.map
    (fun line ->
      match Serve.Protocol.parse_reply line with
      | Ok r -> (
        match r.Serve.Protocol.p_result with
        | Some j -> Obs.Json.to_string j
        | None ->
          "err:" ^ Option.value ~default:"?" r.Serve.Protocol.p_error_code)
      | Error m -> Alcotest.fail m)
    replies

let telemetry_stream =
  List.map
    (fun i -> Serve.Protocol.encode_job (job (Printf.sprintf "s%d" i)))
    [ 0; 1; 2 ]
  @ [ "{\"truncated" ]

let test_scrape_does_not_perturb () =
  let _, plain = serve_lines telemetry_stream in
  Obs.reset ();
  Obs.set_enabled true;
  let tel = Serve.Telemetry.create () in
  let scrapes = ref [] in
  let _, scraped =
    serve_lines ~telemetry:tel
      ~on_reply:(fun () ->
        scrapes :=
          Serve.Telemetry.handle tel "health"
          :: Serve.Telemetry.handle tel "metrics"
          :: !scrapes)
      telemetry_stream
  in
  Obs.set_enabled false;
  Obs.reset ();
  checkb "replies byte-identical with scraping on" true
    (result_members plain = result_members scraped);
  check "scraped after every reply" (2 * List.length plain)
    (List.length !scrapes);
  (* every scrape document carries a registered schema tag *)
  List.iter
    (fun doc ->
      match Obs.Json.member "schema" doc with
      | Some (Obs.Json.Str s) ->
        checkb "schema registered" true (Obs.Schemas.of_string s <> None)
      | _ -> Alcotest.fail "scrape document without a schema tag")
    !scrapes

(* --- windows from sampled totals --- *)

let with_obs f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

let s_ns k = Int64.mul (Int64.of_int k) 1_000_000_000L

(* The clock is injected: ticks and reads are placed whole seconds
   after [t0], so no test sleeps. *)
let test_sampler_windows () =
  with_obs (fun () ->
      let tel = Serve.Telemetry.create () in
      let t0 = Obs.now_ns () in
      let c = Obs.counter "test.win_c" in
      let g = Obs.gauge "test.win_g" in
      let h = Obs.histogram ~bounds:[| 1.0; 10.0 |] "test.win_h" in
      Obs.Counter.add c 5;
      Obs.Counter.incr c;
      Obs.Gauge.set g 2.5;
      Obs.Histogram.observe h 0.5;
      Obs.Histogram.observe h 50.0;
      let full = Serve.Telemetry.window ~now_ns:t0 tel ~horizon_s:60 in
      check "windowed counter = all recent bumps" 6
        (List.assoc "test.win_c" full.Serve.Telemetry.w_counters);
      checkb "windowed gauge = last write" true
        (List.assoc "test.win_g" full.Serve.Telemetry.w_gauges = Some 2.5);
      let hs = List.assoc "test.win_h" full.Serve.Telemetry.w_histograms in
      check "windowed histogram count" 2 hs.Obs.Histogram.count;
      checkb "windowed histogram buckets" true
        (hs.Obs.Histogram.counts = [| 1; 0; 1 |]);
      (* a sample after the bumps, then a read one quiet horizon later:
         counters drop to zero, the gauge to None, the histogram to
         empty — and the windowed percentile hits the nan contract *)
      Serve.Telemetry.tick ~now_ns:(Int64.add t0 (s_ns 1)) tel;
      let gone =
        Serve.Telemetry.window ~now_ns:(Int64.add t0 (s_ns 11)) tel
          ~horizon_s:10
      in
      check "expired counter" 0
        (List.assoc "test.win_c" gone.Serve.Telemetry.w_counters);
      checkb "expired gauge" true
        (List.assoc "test.win_g" gone.Serve.Telemetry.w_gauges = None);
      let ghs = List.assoc "test.win_h" gone.Serve.Telemetry.w_histograms in
      check "expired histogram" 0 ghs.Obs.Histogram.count;
      checkb "expired percentile is nan" true
        (Float.is_nan (Obs.Histogram.percentile ghs 0.5));
      (* the longer horizon still reaches back to the first sample *)
      let long =
        Serve.Telemetry.window ~now_ns:(Int64.add t0 (s_ns 11)) tel
          ~horizon_s:60
      in
      check "60 s horizon keeps the bumps" 6
        (List.assoc "test.win_c" long.Serve.Telemetry.w_counters))

(* Samples are at least 1 s apart and at most 64 are kept, so a window
   reaches back no further than the oldest retained sample. *)
let test_sampler_spacing_and_cap () =
  with_obs (fun () ->
      let tel = Serve.Telemetry.create () in
      let t0 = Obs.now_ns () in
      let c = Obs.counter "test.win_cap" in
      (* sub-second ticks take no sample: the bump stays in the window *)
      Obs.Counter.incr c;
      Serve.Telemetry.tick ~now_ns:(Int64.add t0 500_000_000L) tel;
      let w =
        Serve.Telemetry.window ~now_ns:(Int64.add t0 (s_ns 11)) tel
          ~horizon_s:10
      in
      check "a tick within 1 s takes no sample" 1
        (List.assoc "test.win_cap" w.Serve.Telemetry.w_counters);
      (* one bump per second over 100 s: only the newest 64 samples
         stay, so a 200 s horizon sees the last 63 bumps *)
      for k = 1 to 100 do
        Obs.Counter.incr c;
        Serve.Telemetry.tick ~now_ns:(Int64.add t0 (s_ns k)) tel
      done;
      let w =
        Serve.Telemetry.window ~now_ns:(Int64.add t0 (s_ns 100)) tel
          ~horizon_s:200
      in
      check "horizon capped by the oldest sample" 63
        (List.assoc "test.win_cap" w.Serve.Telemetry.w_counters);
      let w =
        Serve.Telemetry.window ~now_ns:(Int64.add t0 (s_ns 100)) tel
          ~horizon_s:10
      in
      check "10 s horizon" 10
        (List.assoc "test.win_cap" w.Serve.Telemetry.w_counters))

(* The windowed = merged-totals invariant (ARCHITECTURE.md): a window
   covering the whole recording period equals the sequential reference
   no matter how many domains recorded. The work fans out through the
   sanctioned Exec pool (jobs 1/2/4), never raw Domain.spawn. *)
let prop_window_merge =
  QCheck2.Test.make ~name:"windowed = sequential reference across jobs 1/2/4"
    ~count:20
    QCheck2.Gen.(list_size (int_range 1 60) (int_range 1 50))
    (fun xs ->
      let expected_sum = List.fold_left ( + ) 0 xs in
      let arr = Array.of_list xs in
      List.for_all
        (fun jobs ->
          Exec.set_jobs jobs;
          with_obs (fun () ->
              let tel = Serve.Telemetry.create () in
              let c = Obs.counter "test.win_merge_c" in
              let h =
                Obs.histogram ~bounds:[| 10.0; 30.0 |] "test.win_merge_h"
              in
              Exec.parallel_for (Array.length arr) (fun i ->
                  Obs.Counter.add c arr.(i);
                  Obs.Histogram.observe h (float_of_int arr.(i)));
              let v = Serve.Telemetry.window tel ~horizon_s:60 in
              let wc =
                List.assoc "test.win_merge_c" v.Serve.Telemetry.w_counters
              in
              let wh =
                List.assoc "test.win_merge_h" v.Serve.Telemetry.w_histograms
              in
              wc = expected_sum
              && wc = Obs.Counter.value c
              && wh.Obs.Histogram.count = Array.length arr
              && wh.Obs.Histogram.counts
                 = (Obs.Histogram.snap h).Obs.Histogram.counts))
        [ 1; 2; 4 ])

let test_jobs_ring_and_joblog_fields () =
  Obs.reset ();
  Obs.set_enabled true;
  let tel = Serve.Telemetry.create ~ring_capacity:3 () in
  let _, _ = serve_lines ~telemetry:tel telemetry_stream in
  Obs.set_enabled false;
  Obs.reset ();
  match Serve.Telemetry.handle tel "jobs" with
  | Obs.Json.Obj _ as doc ->
    checkb "joblog schema" true
      (Obs.Json.member "schema" doc
      = Some (Obs.Json.Str Obs.Schemas.joblog));
    (* 4 replies through a capacity-3 ring: the oldest evicted *)
    checkb "ring capped" true
      (Obs.Json.member "count" doc = Some (Obs.Json.Int 3));
    (match Obs.Json.member "recent" doc with
    | Some (Obs.Json.List records) ->
      let field k r =
        match Obs.Json.member k r with
        | Some (Obs.Json.Str s) -> s
        | Some Obs.Json.Null -> "null"
        | _ -> "?"
      in
      checkb "oldest first after eviction" true
        (List.map (field "id") records = [ "s1"; "s2"; "null" ]);
      checkb "statuses" true
        (List.map (field "status") records = [ "ok"; "ok"; "error" ]);
      let last = List.nth records 2 in
      checks "error class recorded" "parse_error" (field "error_code" last);
      (* wall-clock spans are present but never asserted on: the
         deterministic fields are the contract, times are banded out *)
      List.iter
        (fun r ->
          checkb "queue span present" true
            (Obs.Json.member "queue_ms" r <> None);
          checkb "execute span present" true
            (Obs.Json.member "execute_ms" r <> None))
        records
    | _ -> Alcotest.fail "jobs reply without records")
  | _ -> Alcotest.fail "jobs reply not an object"

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "job roundtrip" `Quick test_job_roundtrip;
          Alcotest.test_case "defaults" `Quick test_defaults_applied;
          Alcotest.test_case "truncated line" `Quick test_truncated_line;
          Alcotest.test_case "not an object" `Quick test_not_an_object;
          Alcotest.test_case "unknown schema" `Quick test_unknown_schema;
          Alcotest.test_case "bad fields" `Quick test_bad_fields;
          Alcotest.test_case "removed solver modes" `Quick
            test_removed_solver_modes;
          Alcotest.test_case "external field rules" `Quick
            test_external_field_rules;
          Alcotest.test_case "external job roundtrip" `Quick
            test_external_job_roundtrip;
          Alcotest.test_case "error reply" `Quick test_error_reply_roundtrip;
        ] );
      ( "cache",
        [
          Alcotest.test_case "cold=warm bytes" `Quick test_cold_warm_identical;
          Alcotest.test_case "stats" `Quick test_cache_stats_count;
          Alcotest.test_case "served = one-shot" `Quick
            test_served_equals_one_shot;
        ] );
      ( "external",
        [
          Alcotest.test_case "inline def" `Quick test_external_inline_job;
          Alcotest.test_case "cache hit" `Quick test_external_job_cache_hit;
          Alcotest.test_case "def_path" `Quick test_external_path_job;
          Alcotest.test_case "bad def rejected" `Quick
            test_external_rejects_bad_def;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "reuse on a generated placement" `Quick
            test_baseline_reuse_generated;
          Alcotest.test_case "reuse on an inline def" `Quick
            test_baseline_reuse_external;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "survives bad input" `Quick
            test_daemon_survives_bad_input;
          Alcotest.test_case "reply order" `Quick
            test_daemon_order_under_concurrency;
          Alcotest.test_case "traced job" `Quick test_traced_job_carries_trace;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "scrape does not perturb" `Quick
            test_scrape_does_not_perturb;
          Alcotest.test_case "jobs ring and joblog fields" `Quick
            test_jobs_ring_and_joblog_fields;
          Alcotest.test_case "sampled windows" `Quick test_sampler_windows;
          Alcotest.test_case "sample spacing and cap" `Quick
            test_sampler_spacing_and_cap;
          QCheck_alcotest.to_alcotest prop_window_merge;
        ] );
    ]
