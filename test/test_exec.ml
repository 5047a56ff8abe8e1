(* lib/exec: the work-stealing domain pool. Concurrency is stressed
   directly (deque owner vs thieves), and the scheduler's two contracts
   are checked end to end: results are bit-identical across pool sizes,
   and after warm-up the pool never spawns another domain. *)

let sorted_range n = List.init n Fun.id

(* One owner pushing/popping at the bottom, N thief domains stealing at
   the top: every pushed value must come out exactly once, across any
   interleaving. *)
let prop_deque_stress =
  QCheck2.Test.make ~name:"deque: owner + thieves, nothing lost or duplicated"
    ~count:8
    QCheck2.Gen.(pair (int_range 100 2000) (int_range 1 3))
    (fun (n, thieves) ->
      let d = Exec.Deque.create () in
      let stop = Atomic.make false in
      let doms =
        Array.init thieves (fun _ ->
            Domain.spawn (fun () ->
                let acc = ref [] in
                while not (Atomic.get stop) do
                  (match Exec.Deque.steal d with
                  | Some v -> acc := v :: !acc
                  | None -> Domain.cpu_relax ())
                done;
                let rec drain () =
                  match Exec.Deque.steal d with
                  | Some v ->
                    acc := v :: !acc;
                    drain ()
                  | None -> ()
                in
                drain ();
                !acc))
      in
      let popped = ref [] in
      for i = 0 to n - 1 do
        Exec.Deque.push d i;
        if i land 3 = 0 then
          match Exec.Deque.pop d with
          | Some v -> popped := v :: !popped
          | None -> ()
      done;
      let rec drain () =
        match Exec.Deque.pop d with
        | Some v ->
          popped := v :: !popped;
          drain ()
        | None -> ()
      in
      drain ();
      Atomic.set stop true;
      let stolen = Array.map Domain.join doms in
      let all =
        List.concat (!popped :: Array.to_list stolen) |> List.sort Int.compare
      in
      List.length all = n && all = sorted_range n)

(* The determinism contract of the data-parallel loops: same bytes for
   every pool size and chunking. *)
let prop_parallel_map_identical =
  QCheck2.Test.make ~name:"parallel_map/for = sequential across jobs 1/2/4"
    ~count:10
    QCheck2.Gen.(
      pair (list_size (int_range 0 200) (int_range (-1000) 1000)) (int_range 1 8))
    (fun (l, chunk) ->
      let xs = Array.of_list l in
      let f x = (x * 31) lxor (x asr 2) in
      let expect = Array.map f xs in
      List.for_all
        (fun j ->
          Exec.set_jobs j;
          let mapped = Exec.parallel_map ~chunk f xs in
          let out = Array.make (Array.length xs) 0 in
          Exec.parallel_for ~chunk (Array.length xs) (fun i ->
              out.(i) <- f xs.(i));
          mapped = expect && out = expect)
        [ 1; 2; 4 ])

let fixture =
  lazy (Report.Flow.prepare ~scale:64 Netlist.Designs.Aes Pdk.Cell_arch.Closed_m1)

let distopt_cfg parallel =
  {
    Vm1.Dist_opt.tx = 0;
    ty = 0;
    bw = 40;
    bh = 6;
    lx = 3;
    ly = 1;
    allow_flip = false;
    allow_move = true;
    mode = `Greedy;
    parallel;
    candidate_cost = None;
    wcache = None;
  }

let test_distopt_identity () =
  let p = Lazy.force fixture in
  let params = Vm1.Params.default p.Place.Placement.tech in
  let a = Place.Placement.copy p in
  Exec.set_jobs 1;
  ignore (Vm1.Dist_opt.run a params (distopt_cfg false));
  let b = Place.Placement.copy p in
  Exec.set_jobs 4;
  ignore (Vm1.Dist_opt.run b params (distopt_cfg true));
  Alcotest.(check (array int)) "xs" a.Place.Placement.xs b.Place.Placement.xs;
  Alcotest.(check (array int)) "ys" a.Place.Placement.ys b.Place.Placement.ys;
  Alcotest.(check bool) "orients" true
    (a.Place.Placement.orients = b.Place.Placement.orients)

let test_route_identity () =
  let p = Lazy.force fixture in
  (* small tiles force a multi-tile sharded pass even on this small die *)
  let config = { Route.Router.default_config with shard_tracks = 16 } in
  let digest (r : Route.Router.result) =
    Digest.to_hex
      (Digest.string
         (Marshal.to_string
            (r.Route.Router.routes, r.Route.Router.failed_subnets)
            []))
  in
  Exec.set_jobs 1;
  let r1 = Route.Router.route ~config p in
  Exec.set_jobs 4;
  let r4 = Route.Router.route ~config p in
  Alcotest.(check string) "routes identical" (digest r1) (digest r4);
  Alcotest.(check bool) "usage identical" true
    (r1.Route.Router.grid.Route.Grid.wire_usage
       = r4.Route.Router.grid.Route.Grid.wire_usage
    && r1.Route.Router.grid.Route.Grid.via_usage
         = r4.Route.Router.grid.Route.Grid.via_usage)

let test_fallback () =
  Exec.set_jobs 4;
  (* a raising task propagates to the awaiter without hurting the pool *)
  let g = Exec.submit (fun () -> raise Exit) in
  (match Exec.Future.await g with
  | _ -> Alcotest.fail "expected Exit"
  | exception Exit -> ());
  let h = Exec.parallel_map (fun x -> x + 1) [| 1; 2; 3 |] in
  Alcotest.(check (array int)) "pool alive after exception" [| 2; 3; 4 |] h

let test_future_combinators () =
  Exec.set_jobs 2;
  let f = Exec.Future.map (fun x -> x * 2) (Exec.submit (fun () -> 21)) in
  Alcotest.(check int) "map" 42 (Exec.Future.await f);
  let l = Exec.Future.all (List.init 10 (fun i -> Exec.submit (fun () -> i))) in
  Alcotest.(check (list int)) "all" (sorted_range 10) (Exec.Future.await l)

(* The warm-up spawns exactly jobs-1 domains; no parallel call after
   that may spawn another (the satellite fix for spawn-per-batch). *)
let test_no_mid_run_spawn () =
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () ->
      Exec.shutdown ();
      Exec.set_jobs 3;
      let c = Obs.counter "exec.domain_spawns" in
      let v0 = Obs.Counter.value c in
      ignore (Exec.parallel_map Fun.id (Array.init 100 Fun.id));
      let warm = Obs.Counter.value c in
      Alcotest.(check int) "warm-up spawns jobs-1 domains" (v0 + 2) warm;
      let p = Lazy.force fixture in
      let params = Vm1.Params.default p.Place.Placement.tech in
      let q = Place.Placement.copy p in
      ignore (Vm1.Dist_opt.run q params (distopt_cfg true));
      for _ = 1 to 5 do
        ignore (Exec.parallel_map (fun x -> x * 2) (Array.init 64 Fun.id));
        Exec.parallel_for 32 (fun _ -> ())
      done;
      Alcotest.(check int) "zero mid-run spawns" warm (Obs.Counter.value c))

let () =
  Alcotest.run "exec"
    [
      ( "deque",
        List.map QCheck_alcotest.to_alcotest [ prop_deque_stress ] );
      ( "loops",
        List.map QCheck_alcotest.to_alcotest [ prop_parallel_map_identical ] );
      ( "determinism",
        [
          Alcotest.test_case "distopt pool = sequential" `Quick
            test_distopt_identity;
          Alcotest.test_case "routing identical across jobs" `Quick
            test_route_identity;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "exception fallback" `Quick
            test_fallback;
          Alcotest.test_case "future combinators" `Quick
            test_future_combinators;
          Alcotest.test_case "no mid-run domain spawns" `Quick
            test_no_mid_run_spawn;
        ] );
    ]
