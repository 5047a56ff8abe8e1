(* lib/exec: the shared-queue domain pool. The scheduler's contracts
   are checked end to end: results are bit-identical across pool sizes,
   nested parallel calls finish, a raising task runs once, and after
   warm-up the pool never spawns another domain. *)

(* The determinism contract of the data-parallel loops: same bytes for
   every pool size and chunking, also when the loops nest — inside
   [parallel_for] bodies and inside a submitted thunk, which run on
   worker domains and must not deadlock. *)
let prop_parallel_map_identical =
  QCheck2.Test.make ~name:"parallel_map/for = sequential across jobs 1/2/4"
    ~count:10
    QCheck2.Gen.(
      pair (list_size (int_range 0 200) (int_range (-1000) 1000)) (int_range 1 8))
    (fun (l, chunk) ->
      let xs = Array.of_list l in
      let n = Array.length xs in
      let f x = (x * 31) lxor (x asr 2) in
      let expect = Array.map f xs in
      let prefix i = Array.sub xs 0 (min n (i mod 9)) in
      List.for_all
        (fun j ->
          Exec.set_jobs j;
          let mapped = Exec.parallel_map ~chunk f xs in
          let out = Array.make n 0 in
          Exec.parallel_for ~chunk n (fun i -> out.(i) <- f xs.(i));
          let nested = Array.make n [||] in
          Exec.parallel_for ~chunk n (fun i ->
              nested.(i) <- Exec.parallel_map ~chunk f (prefix i));
          let submitted =
            Exec.Future.await
              (Exec.submit (fun () -> Exec.parallel_map ~chunk f xs))
          in
          mapped = expect && out = expect && submitted = expect
          && Array.for_all Fun.id
               (Array.mapi (fun i r -> r = Array.map f (prefix i)) nested))
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
  (* small tiles force a multi-tile initial pass even on this small die *)
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
    (r1.Route.Router.grid.Route.Grid.edges
     = r4.Route.Router.grid.Route.Grid.edges)

(* A raising task resolves to its exception: the awaiter gets it, the
   thunk is never re-run, and the pool keeps working. *)
let test_fallback () =
  List.iter
    (fun j ->
      Exec.set_jobs j;
      let runs = ref 0 in
      let g =
        Exec.submit (fun () ->
            incr runs;
            raise Exit)
      in
      (* queued work: the raising task may run on a worker first *)
      ignore (Exec.parallel_map (fun x -> x + 1) (Array.init 64 Fun.id));
      for _ = 1 to 2 do
        match Exec.Future.await g with
        | _ -> Alcotest.fail "expected Exit"
        | exception Exit -> ()
      done;
      Alcotest.(check int) (Printf.sprintf "jobs %d: thunk ran once" j) 1 !runs;
      let h = Exec.parallel_map (fun x -> x + 1) [| 1; 2; 3 |] in
      Alcotest.(check (array int)) "pool alive after exception" [| 2; 3; 4 |] h)
    [ 1; 4 ]

(* At jobs 1 nothing is queued: [submit] leaves the thunk alone and the
   first [await] runs it inline, once. *)
let test_sequential_submit () =
  Exec.set_jobs 1;
  let runs = ref 0 in
  let f =
    Exec.submit (fun () ->
        incr runs;
        42)
  in
  Alcotest.(check int) "not run at submit" 0 !runs;
  Alcotest.(check int) "await" 42 (Exec.Future.await f);
  Alcotest.(check int) "await again" 42 (Exec.Future.await f);
  Alcotest.(check int) "ran once" 1 !runs;
  Alcotest.(check int) "return" 7 (Exec.Future.await (Exec.Future.return 7))

(* Tasks still queued when the pool shuts down are not lost: each runs
   exactly once, on a draining worker or on its awaiter. *)
let test_shutdown_keeps_pending () =
  Exec.set_jobs 3;
  let n = 50 in
  let runs = Array.make n 0 in
  let futs =
    List.init n (fun i ->
        Exec.submit (fun () ->
            runs.(i) <- runs.(i) + 1;
            i * i))
  in
  Exec.shutdown ();
  Alcotest.(check (list int)) "values"
    (List.init n (fun i -> i * i))
    (List.map Exec.Future.await futs);
  Alcotest.(check (array int)) "each ran once" (Array.make n 1) runs

(* [set_jobs] to a new size retires the live pool and the next parallel
   call spawns workers at that size; the same size keeps the pool. *)
let test_set_jobs_resizes () =
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () ->
      Exec.shutdown ();
      let c = Obs.counter "exec.domain_spawns" in
      let spawned_by j =
        let v0 = Obs.Counter.value c in
        Exec.set_jobs j;
        let xs = Array.init 40 Fun.id in
        Alcotest.(check (array int))
          (Printf.sprintf "jobs %d: map" j)
          (Array.map succ xs)
          (Exec.parallel_map succ xs);
        Obs.Counter.value c - v0
      in
      Alcotest.(check (list int)) "spawns per set_jobs" [ 1; 3; 0; 0; 1 ]
        (List.map spawned_by [ 2; 4; 4; 1; 2 ]))

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
          Alcotest.test_case "submit at jobs 1 runs on await" `Quick
            test_sequential_submit;
          Alcotest.test_case "shutdown keeps pending tasks" `Quick
            test_shutdown_keeps_pending;
          Alcotest.test_case "set_jobs resizes the pool" `Quick
            test_set_jobs_resizes;
          Alcotest.test_case "no mid-run domain spawns" `Quick
            test_no_mid_run_spawn;
        ] );
    ]
