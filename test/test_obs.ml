(* Tests for the observability layer: span nesting, exception safety,
   domain-safe metric merging, the disabled no-op path, and the JSON
   trace round-trip. Obs state is process-global, so every test starts
   from [reset] and leaves instrumentation disabled. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let with_obs f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) f

(* --- spans --- *)

let test_span_nesting () =
  with_obs (fun () ->
      Obs.with_span "outer" (fun () ->
          Obs.with_span "first" (fun () -> ());
          Obs.with_span "second" (fun () ->
              Obs.with_span "inner" (fun () -> ())));
      let snap = Obs.snapshot () in
      check_int "one root" 1 (List.length snap.Obs.spans);
      let root = List.hd snap.Obs.spans in
      check_str "root name" "outer" root.Obs.Span.name;
      check_int "root children" 2 (List.length root.Obs.Span.children);
      let names = List.map (fun (s : Obs.Span.t) -> s.name) root.children in
      check_bool "child order" true (names = [ "first"; "second" ]);
      let second = List.nth root.children 1 in
      check_int "grandchild" 1 (List.length second.Obs.Span.children);
      (* timing sanity: children nest inside the parent interval *)
      List.iter
        (fun (c : Obs.Span.t) ->
          check_bool "child starts after parent" true
            (c.start_ns >= root.start_ns);
          check_bool "child ends before parent" true (c.end_ns <= root.end_ns))
        root.children)

let test_span_attrs () =
  with_obs (fun () ->
      Obs.with_span "work" ~attrs:[ ("given", `Int 1) ] (fun () ->
          Obs.add_attr "added" (`Str "yes"));
      let snap = Obs.snapshot () in
      let root = List.hd snap.Obs.spans in
      check_bool "attrs in order" true
        (root.Obs.Span.attrs = [ ("given", `Int 1); ("added", `Str "yes") ]))

let test_span_exception_safe () =
  with_obs (fun () ->
      (try
         Obs.with_span "outer" (fun () ->
             Obs.with_span "thrower" (fun () -> failwith "boom"))
       with Failure _ -> ());
      let snap = Obs.snapshot () in
      check_int "root recorded despite raise" 1 (List.length snap.Obs.spans);
      let root = List.hd snap.Obs.spans in
      check_int "child recorded despite raise" 1
        (List.length root.Obs.Span.children);
      (* the open-span stack recovered: new spans nest at the top level *)
      Obs.with_span "after" (fun () -> ());
      check_int "stack balanced" 2 (List.length (Obs.snapshot ()).Obs.spans))

let test_disabled_is_noop () =
  Obs.reset ();
  Obs.set_enabled false;
  Obs.with_span "invisible" (fun () -> ());
  Obs.Counter.incr (Obs.counter "test.disabled_counter");
  Obs.Gauge.set (Obs.gauge "test.disabled_gauge") 5.0;
  let snap = Obs.snapshot () in
  check_int "no spans" 0 (List.length snap.Obs.spans);
  check_int "counter untouched" 0
    (Obs.Counter.value (Obs.counter "test.disabled_counter"));
  check_bool "gauge untouched" true
    (Obs.Gauge.value (Obs.gauge "test.disabled_gauge") = 0.0)

(* --- metrics across domains --- *)

let test_counter_merge_across_domains () =
  with_obs (fun () ->
      let c = Obs.counter "test.par_counter" in
      let worker () =
        for _ = 1 to 10_000 do
          Obs.Counter.incr c
        done;
        Obs.with_span "domain_root" (fun () -> ())
      in
      let domains = List.init 4 (fun _ -> Domain.spawn worker) in
      worker ();
      List.iter Domain.join domains;
      check_int "all bumps merged" 50_000 (Obs.Counter.value c);
      (* spans opened on spawned domains surface as their own roots *)
      let snap = Obs.snapshot () in
      check_int "one root per domain" 5 (List.length snap.Obs.spans))

let test_histogram () =
  with_obs (fun () ->
      let h = Obs.histogram ~bounds:[| 1.0; 10.0; 100.0 |] "test.hist" in
      List.iter (Obs.Histogram.observe h) [ 0.5; 5.0; 50.0; 500.0; 2.0 ];
      let s = Obs.Histogram.snap h in
      check_int "count" 5 s.Obs.Histogram.count;
      check_bool "sum" true (abs_float (s.sum -. 557.5) < 1e-9);
      check_bool "bucket counts" true (s.counts = [| 1; 2; 1; 1 |]))

let test_percentile () =
  with_obs (fun () ->
      let h = Obs.histogram ~bounds:[| 10.0; 20.0; 40.0 |] "test.pct" in
      (* 8 observations in [0,10), 2 in [10,20): p50 interpolates inside
         the first bucket, p90 lands exactly on its upper bound, p99
         interpolates inside the second *)
      for i = 1 to 8 do
        Obs.Histogram.observe h (float_of_int i)
      done;
      Obs.Histogram.observe h 12.0;
      Obs.Histogram.observe h 18.0;
      let s = Obs.Histogram.snap h in
      let pct q = Obs.Histogram.percentile s q in
      check_bool "p50" true (abs_float (pct 0.50 -. 6.25) < 1e-9);
      check_bool "p90" true (abs_float (pct 0.90 -. 15.0) < 1e-9);
      check_bool "p100 capped at bound" true (pct 1.0 <= 20.0 +. 1e-9);
      (* documented contract: percentile is total, and an empty snap has
         no quantiles — nan, never a fake 0 (regression: used to be 0) *)
      check_bool "empty is nan" true
        (Float.is_nan
           (Obs.Histogram.percentile
              (Obs.Histogram.snap (Obs.histogram "test.pct2"))
              0.5));
      check_bool "degenerate bounds is nan" true
        (Float.is_nan
           (Obs.Histogram.percentile
              { Obs.Histogram.bounds = [||]; counts = [| 3 |];
                count = 3; sum = 1.0 }
              0.5));
      (* overflow-only data reports the highest finite bound *)
      let o = Obs.histogram ~bounds:[| 1.0; 2.0 |] "test.pct3" in
      Obs.Histogram.observe o 99.0;
      check_bool "overflow bucket" true
        (abs_float (Obs.Histogram.percentile (Obs.Histogram.snap o) 0.9 -. 2.0)
        < 1e-9))

let test_aggregate () =
  with_obs (fun () ->
      for _ = 1 to 3 do
        Obs.with_span "leaf" (fun () -> ())
      done;
      Obs.with_span "top" (fun () -> Obs.with_span "leaf" (fun () -> ()));
      let aggs = Obs.aggregate_spans (Obs.snapshot ()).Obs.spans in
      let leaf = List.assoc "leaf" aggs in
      check_int "nested spans aggregated too" 4 leaf.Obs.calls;
      check_int "top once" 1 (List.assoc "top" aggs).Obs.calls)

(* --- JSON --- *)

let test_json_roundtrip () =
  let v =
    Obs.Json.(
      Obj
        [
          ("name", Str "a \"quoted\"\nstring");
          ("xs", List [ Int 1; Int (-42); Float 2.5; Float 1e-9 ]);
          ("flags", Obj [ ("on", Bool true); ("off", Bool false) ]);
          ("nothing", Null);
          ("empty_list", List []);
          ("empty_obj", Obj []);
        ])
  in
  match Obs.Json.parse (Obs.Json.to_string v) with
  | Error e -> Alcotest.failf "parse error: %s" e
  | Ok v' -> check_bool "round-trip equal" true (v = v')

let test_trace_export_roundtrip () =
  with_obs (fun () ->
      Obs.with_span "root" ~attrs:[ ("k", `Int 7) ] (fun () ->
          Obs.with_span "child" (fun () -> ()));
      Obs.Counter.add (Obs.counter "test.c") 3;
      Obs.Gauge.set (Obs.gauge "test.g") 1.5;
      Obs.Histogram.observe (Obs.histogram "test.h") 0.25;
      let text = Obs.Json.to_string (Obs.trace_json (Obs.snapshot ())) in
      match Obs.Json.parse text with
      | Error e -> Alcotest.failf "trace does not parse: %s" e
      | Ok j ->
        check_bool "schema tag" true
          (Obs.Json.member "schema" j = Some (Obs.Json.Str Obs.Schemas.trace));
        (match Obs.Json.member "counters" j with
        | Some counters ->
          check_bool "counter exported" true
            (Obs.Json.member "test.c" counters = Some (Obs.Json.Int 3))
        | None -> Alcotest.fail "no counters key");
        (match Obs.Json.member "spans" j with
        | Some (Obs.Json.List [ root ]) ->
          check_bool "span name" true
            (Obs.Json.member "name" root = Some (Obs.Json.Str "root"));
          check_bool "span has children" true
            (Obs.Json.member "children" root <> None)
        | _ -> Alcotest.fail "expected exactly one root span"))

let test_reset () =
  with_obs (fun () ->
      Obs.with_span "s" (fun () -> ());
      Obs.Counter.incr (Obs.counter "test.reset_c");
      Obs.reset ();
      check_int "spans cleared" 0 (List.length (Obs.snapshot ()).Obs.spans);
      check_int "counter zeroed" 0
        (Obs.Counter.value (Obs.counter "test.reset_c")))

(* --- incremental snapshots --- *)

let test_snapshot_delta () =
  with_obs (fun () ->
      let cur = Obs.cursor () in
      Obs.with_span "first" (fun () -> ());
      let d1 = Obs.snapshot_delta cur in
      check_int "first delta sees first root" 1 (List.length d1.Obs.spans);
      let d2 = Obs.snapshot_delta cur in
      check_int "nothing new, empty delta" 0 (List.length d2.Obs.spans);
      Obs.with_span "second" (fun () -> ());
      Obs.with_span "third" (fun () -> ());
      let d3 = Obs.snapshot_delta cur in
      check_int "only the fresh roots" 2 (List.length d3.Obs.spans);
      check_str "oldest fresh root first" "second"
        (List.hd d3.Obs.spans).Obs.Span.name;
      (* metrics stay cumulative in a delta *)
      Obs.Counter.add (Obs.counter "test.delta_c") 7;
      let d4 = Obs.snapshot_delta cur in
      check_int "cumulative counter" 7
        (List.assoc "test.delta_c" d4.Obs.counters);
      (* a cursor ahead of a reset history self-heals *)
      Obs.reset ();
      check_int "after reset, empty" 0
        (List.length (Obs.snapshot_delta cur).Obs.spans);
      Obs.with_span "fourth" (fun () -> ());
      check_int "then sees new roots again" 1
        (List.length (Obs.snapshot_delta cur).Obs.spans))

(* --- bounded ring --- *)

let test_ring () =
  let r = Obs.Ring.create 3 in
  check_int "empty" 0 (Obs.Ring.length r);
  Obs.Ring.push r 1;
  Obs.Ring.push r 2;
  check_bool "oldest first" true (Obs.Ring.to_list r = [ 1; 2 ]);
  Obs.Ring.push r 3;
  Obs.Ring.push r 4;
  check_int "capped" 3 (Obs.Ring.length r);
  check_bool "evicts oldest" true (Obs.Ring.to_list r = [ 2; 3; 4 ])

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "attrs" `Quick test_span_attrs;
          Alcotest.test_case "exception safety" `Quick test_span_exception_safe;
          Alcotest.test_case "disabled is noop" `Quick test_disabled_is_noop;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter merge across domains" `Quick
            test_counter_merge_across_domains;
          Alcotest.test_case "histogram buckets" `Quick test_histogram;
          Alcotest.test_case "histogram percentiles" `Quick test_percentile;
          Alcotest.test_case "aggregation" `Quick test_aggregate;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "snapshot delta" `Quick test_snapshot_delta;
        ] );
      ( "ring",
        [ Alcotest.test_case "bounded fifo" `Quick test_ring ] );
      ( "json",
        [
          Alcotest.test_case "value round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "trace export round-trip" `Quick
            test_trace_export_roundtrip;
        ] );
    ]
