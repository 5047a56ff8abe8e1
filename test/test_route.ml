(* Tests for the routing substrate: heap, grid, router, metrics. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let closed_lib = Pdk.Libgen.generate (Pdk.Tech.default Pdk.Cell_arch.Closed_m1)

let placed_design ?(n = 250) ?(seed = 9) ?(utilization = 0.7) lib =
  let d =
    Netlist.Generator.generate lib
      (Netlist.Generator.default_config ~n_instances:n ~seed)
      ~name:"t"
  in
  let p = Place.Placement.create d ~utilization in
  Place.Global.place p;
  p

(* --- Heap --- *)

let test_heap_basic () =
  let h = Heap.create () in
  checkb "empty" true (Heap.is_empty h);
  Heap.push h ~prio:5 ~value:50;
  Heap.push h ~prio:1 ~value:10;
  Heap.push h ~prio:3 ~value:30;
  check "size" 3 (Heap.size h);
  let p1, v1 = Heap.pop h in
  check "first prio" 1 p1;
  check "first value" 10 v1;
  let p2, _ = Heap.pop h in
  check "second prio" 3 p2;
  let p3, _ = Heap.pop h in
  check "third prio" 5 p3;
  checkb "empty again" true (Heap.is_empty h);
  Alcotest.check_raises "pop empty" (Invalid_argument "Heap.pop: empty")
    (fun () -> ignore (Heap.pop h))

let prop_heap_sorts =
  QCheck2.Test.make ~name:"heap pops in priority order" ~count:200
    QCheck2.Gen.(list_size (int_range 1 200) (int_range 0 10000))
    (fun prios ->
      let h = Heap.create ~capacity:4 () in
      List.iteri (fun i p -> Heap.push h ~prio:p ~value:i) prios;
      let out = ref [] in
      while not (Heap.is_empty h) do
        out := fst (Heap.pop h) :: !out
      done;
      List.rev !out = List.sort Int.compare prios)

(* --- Bucket queue --- *)

let test_bqueue_basic () =
  let q = Route.Router.Bqueue.create ~capacity:4 () in
  checkb "empty" true (Route.Router.Bqueue.is_empty q);
  Route.Router.Bqueue.push q ~prio:500 ~value:1;
  Route.Router.Bqueue.push q ~prio:497 ~value:2;
  Route.Router.Bqueue.push q ~prio:500 ~value:3;
  Route.Router.Bqueue.push q ~prio:1200 ~value:4;
  check "size" 4 (Route.Router.Bqueue.size q);
  let v = Route.Router.Bqueue.pop q in
  check "min prio" 497 (Route.Router.Bqueue.last_prio q);
  check "min value" 2 v;
  check "tie pops fifo" 1 (Route.Router.Bqueue.pop q);
  check "tie pops fifo 2" 3 (Route.Router.Bqueue.pop q);
  (* a push far below the latched origin (cursor already advanced) *)
  Route.Router.Bqueue.push q ~prio:30 ~value:5;
  let v = Route.Router.Bqueue.pop q in
  check "below-origin prio" 30 (Route.Router.Bqueue.last_prio q);
  check "below-origin value" 5 v;
  ignore (Route.Router.Bqueue.pop q);
  check "last prio" 1200 (Route.Router.Bqueue.last_prio q);
  checkb "drained" true (Route.Router.Bqueue.is_empty q);
  check "pushes survive pops" 5 (Route.Router.Bqueue.pushes q);
  Route.Router.Bqueue.clear q;
  Route.Router.Bqueue.push q ~prio:7 ~value:9;
  ignore (Route.Router.Bqueue.pop q);
  check "reusable after clear" 7 (Route.Router.Bqueue.last_prio q);
  check "pushes survive clear" 6 (Route.Router.Bqueue.pushes q);
  Alcotest.check_raises "pop empty" (Invalid_argument "Bqueue.pop: empty")
    (fun () -> ignore (Route.Router.Bqueue.pop q))

(* Under any interleaving of pushes, pops and clears, the bucket queue
   pops exactly what a stable (priority, push sequence) order pops: the
   minimum priority first and, among equal priorities, the earliest push
   (FIFO) — the tie order routing byte-identity depends on. The
   reference is the binary heap keyed by [prio * seq_span + seq]. Each
   push carries a distinct sequence number as its value. The generated
   streams cover clears mid-stream followed by reuse, pushes below the
   latched origin (priorities are uniform, so later pushes often land
   far below the first) and more live entries than the initial pool. *)
type bq_op = Push of int | Pop | Clear

let seq_span = 1 lsl 20

let prop_bqueue_matches_heap =
  QCheck2.Test.make ~name:"bucket queue priorities match heap" ~count:300
    QCheck2.Gen.(
      list_size (int_range 1 400)
        (frequency
           [
             (12, map (fun p -> Push p) (int_range 0 2500));
             (5, pure Pop);
             (1, pure Clear);
           ]))
    (fun ops ->
      let q = Route.Router.Bqueue.create ~capacity:16 () in
      let h = Heap.create ~capacity:4 () in
      let seq = ref 0 and ok = ref true in
      let pop_matches () =
        let v = Route.Router.Bqueue.pop q in
        let key, hv = Heap.pop h in
        Route.Router.Bqueue.last_prio q = key / seq_span && v = hv
      in
      List.iter
        (function
          | Push prio ->
            incr seq;
            Route.Router.Bqueue.push q ~prio ~value:!seq;
            Heap.push h ~prio:((prio * seq_span) + !seq) ~value:!seq
          | Pop ->
            if not (Route.Router.Bqueue.is_empty q) then
              if not (pop_matches ()) then ok := false
          | Clear ->
            Route.Router.Bqueue.clear q;
            Heap.clear h)
        ops;
      while not (Route.Router.Bqueue.is_empty q) do
        if not (pop_matches ()) then ok := false
      done;
      !ok && Heap.is_empty h && Route.Router.Bqueue.pushes q = !seq)

(* the storage edge cases, pinned deterministically: far more live
   entries than the initial pool, and a clear whose dropped entries
   must not resurface when the queue is reused *)
let test_bqueue_pool_growth_and_reuse () =
  let q = Route.Router.Bqueue.create ~capacity:16 () in
  for k = 0 to 999 do
    Route.Router.Bqueue.push q ~prio:(k mod 7) ~value:k
  done;
  check "live entries" 1000 (Route.Router.Bqueue.size q);
  (* priority 0 holds k = 0, 7, 14, ...: FIFO across pool growth *)
  check "first" 0 (Route.Router.Bqueue.pop q);
  check "second" 7 (Route.Router.Bqueue.pop q);
  Route.Router.Bqueue.clear q;
  checkb "cleared" true (Route.Router.Bqueue.is_empty q);
  Route.Router.Bqueue.push q ~prio:3 ~value:42;
  Route.Router.Bqueue.push q ~prio:3 ~value:43;
  check "no stale entry after clear" 42 (Route.Router.Bqueue.pop q);
  check "fifo after clear" 43 (Route.Router.Bqueue.pop q);
  checkb "drained" true (Route.Router.Bqueue.is_empty q)

(* --- Stampset --- *)

let test_stampset () =
  let s = Route.Stampset.create 100 in
  check "empty" 0 (Route.Stampset.cardinal s);
  Route.Stampset.add s 7;
  Route.Stampset.add s 3;
  Route.Stampset.add s 7;
  Route.Stampset.add s 99;
  check "dup ignored" 3 (Route.Stampset.cardinal s);
  checkb "mem" true (Route.Stampset.mem s 3);
  checkb "not mem" false (Route.Stampset.mem s 4);
  let order = ref [] in
  Route.Stampset.iter s (fun x -> order := x :: !order);
  Alcotest.(check (list int)) "insertion order" [ 7; 3; 99 ] (List.rev !order);
  Route.Stampset.clear s;
  check "cleared" 0 (Route.Stampset.cardinal s);
  checkb "stale stamp invisible" false (Route.Stampset.mem s 7);
  Route.Stampset.add s 3;
  check "reusable" 1 (Route.Stampset.cardinal s)

(* --- Grid --- *)

let test_grid_geometry () =
  let p = placed_design closed_lib in
  let g = Route.Grid.of_placement p in
  checkb "nx positive" true (g.Route.Grid.nx > 0);
  check "pitch" 36 g.Route.Grid.pitch;
  (* node index roundtrips *)
  let n = Route.Grid.node g ~layer:3 ~i:5 ~j:7 in
  check "layer" 3 (Route.Grid.layer_of_node g n);
  check "i" 5 (Route.Grid.i_of_node g n);
  check "j" 7 (Route.Grid.j_of_node g n);
  check "track x" (5 * 36 + 18) (Route.Grid.track_x g 5);
  check "x to track" 5 (Route.Grid.x_to_track g (5 * 36 + 18));
  checkb "vertical M1" true (Route.Grid.is_vertical_layer 1);
  checkb "horizontal M2" false (Route.Grid.is_vertical_layer 2);
  checkb "vertical M5" true (Route.Grid.is_vertical_layer 5)

let test_grid_edges () =
  let p = placed_design closed_lib in
  let g = Route.Grid.of_placement p in
  (* vertical layer: wire edge goes up a row of tracks *)
  let n = Route.Grid.node g ~layer:1 ~i:0 ~j:0 in
  checkb "has wire edge" true (Route.Grid.has_wire_edge g n);
  check "wire dest is j+1" (Route.Grid.node g ~layer:1 ~i:0 ~j:1)
    (Route.Grid.wire_dest g n);
  (* horizontal layer *)
  let n2 = Route.Grid.node g ~layer:2 ~i:0 ~j:0 in
  check "wire dest is i+1" (Route.Grid.node g ~layer:2 ~i:1 ~j:0)
    (Route.Grid.wire_dest g n2);
  (* top layer has no via up *)
  let top = Route.Grid.node g ~layer:Route.Grid.num_layers ~i:0 ~j:0 in
  checkb "no via from top" false (Route.Grid.has_via_edge g top);
  checkb "via from M1" true (Route.Grid.has_via_edge g n);
  check "via dest" (Route.Grid.node g ~layer:2 ~i:0 ~j:0) (Route.Grid.via_dest g n)

let test_grid_pin_access_nonempty () =
  let p = placed_design closed_lib in
  let g = Route.Grid.of_placement p in
  Array.iteri
    (fun i (inst : Netlist.Design.instance) ->
      List.iteri
        (fun k _ ->
          let access = Route.Grid.pin_access g { Netlist.Design.inst = i; pin = k } in
          checkb "access nonempty" true (access <> []))
        inst.master.Pdk.Stdcell.pins)
    p.design.Netlist.Design.instances

let test_grid_pin_blockage_ownership () =
  let p = placed_design closed_lib in
  let g = Route.Grid.of_placement p in
  (* every ClosedM1 pin's access nodes carry the pin's net as owner on the
     covered edges (or blocked when overlapping another pin) *)
  let some_checked = ref false in
  Array.iteri
    (fun i (inst : Netlist.Design.instance) ->
      List.iteri
        (fun k _ ->
          let netid = inst.pin_nets.(k) in
          if netid >= 0 then begin
            List.iter
              (fun node ->
                if Route.Grid.has_wire_edge g node then begin
                  let owner = Route.Grid.wire_owner g node in
                  if owner = netid then some_checked := true;
                  checkb "owner is net, blocked, or free boundary" true
                    (owner = netid || owner = Route.Grid.blocked
                     || owner = Route.Grid.free)
                end)
              (Route.Grid.pin_access g { Netlist.Design.inst = i; pin = k })
          end)
        inst.master.Pdk.Stdcell.pins)
    p.design.Netlist.Design.instances;
  checkb "at least one owned edge seen" true !some_checked

let test_conv12_blocks_inter_row_m1 () =
  let lib = Pdk.Libgen.generate (Pdk.Tech.default Pdk.Cell_arch.Conventional12) in
  let p = placed_design lib in
  let g = Route.Grid.of_placement p in
  let rh = p.Place.Placement.tech.Pdk.Tech.row_height in
  (* every M1 wire edge crossing a row boundary must be blocked *)
  let crossing = ref 0 and blocked = ref 0 in
  for i = 0 to g.Route.Grid.nx - 1 do
    for j = 0 to g.Route.Grid.ny - 2 do
      let ya = Route.Grid.track_y g j and yb = Route.Grid.track_y g (j + 1) in
      let crosses = ya / rh <> yb / rh in
      if crosses then begin
        incr crossing;
        let n = Route.Grid.node g ~layer:1 ~i ~j in
        if Route.Grid.wire_owner g n = Route.Grid.blocked then incr blocked
      end
    done
  done;
  checkb "has crossings" true (!crossing > 0);
  check "all crossings blocked" !crossing !blocked

let test_m2_power_rails_blocked () =
  (* 7.5-track architectures lose the M2 track nearest each row boundary
     to the power rails *)
  let p = placed_design closed_lib in
  let g = Route.Grid.of_placement p in
  let rh = p.Place.Placement.tech.Pdk.Tech.row_height in
  let blocked_rows = ref 0 in
  for r = 1 to p.Place.Placement.num_rows - 1 do
    let y = r * rh in
    (* find the nearest M2 track and check it is blocked *)
    let j = Route.Grid.y_to_track g y in
    let j =
      if
        j + 1 < g.Route.Grid.ny
        && abs (Route.Grid.track_y g (j + 1) - y) < abs (Route.Grid.track_y g j - y)
      then j + 1
      else j
    in
    let n = Route.Grid.node g ~layer:2 ~i:(g.Route.Grid.nx / 2) ~j in
    if Route.Grid.wire_owner g n = Route.Grid.blocked then incr blocked_rows
  done;
  check "rails on every row boundary" (p.Place.Placement.num_rows - 1) !blocked_rows

(* PDN straps: every 8th vertical M5 track and every 8th horizontal M6
   track is blocked over its whole length, and nothing else on those
   layers is; a 4-layer stack has no strap layer and so no strap. *)
let test_pdn_stripes () =
  let p = placed_design closed_lib in
  let g = Route.Grid.of_placement p in
  let nx = g.Route.Grid.nx and ny = g.Route.Grid.ny in
  let blocked layer i j =
    Route.Grid.wire_owner g (Route.Grid.node g ~layer ~i ~j)
    = Route.Grid.blocked
  in
  for i = 0 to nx - 1 do
    for j = 0 to ny - 2 do
      if blocked 5 i j <> (i mod 8 = 0) then
        Alcotest.failf "M5 edge (%d,%d): blocked = %b" i j (blocked 5 i j)
    done
  done;
  for j = 0 to ny - 1 do
    for i = 0 to nx - 2 do
      if blocked 6 i j <> (j mod 8 = 0) then
        Alcotest.failf "M6 edge (%d,%d): blocked = %b" i j (blocked 6 i j)
    done
  done;
  let g4 = Route.Grid.of_placement ~layers:4 p in
  let strap = ref 0 in
  for n = 0 to Route.Grid.node_count g4 - 1 do
    if
      Route.Grid.layer_of_node g4 n >= 3
      && Route.Grid.wire_owner g4 n = Route.Grid.blocked
    then incr strap
  done;
  check "no strap on a 4-layer stack" 0 !strap

(* Every grid is built from its placement alone: two grids of one
   placement share no array, so usage committed on one never shows in
   the other, and routing other dies and this one in between leaves the
   next grid of a placement equal to its first as built. *)
let test_grid_built_afresh () =
  let p = placed_design closed_lib in
  let g1 = Route.Grid.of_placement p in
  let edges0 = Array.copy g1.Route.Grid.edges in
  let g2 = Route.Grid.of_placement p in
  let n = Route.Grid.node g1 ~layer:3 ~i:1 ~j:1 in
  Route.Grid.commit_wire g1 n;
  Route.Grid.commit_via g1 n;
  check "wire usage private" 0 (Route.Grid.wire_usage g2 n);
  check "via usage private" 0 (Route.Grid.via_usage g2 n);
  ignore (Route.Router.route (placed_design ~n:150 ~seed:3 closed_lib));
  ignore (Route.Router.route p);
  let g3 = Route.Grid.of_placement p in
  checkb "same edge words" true (g3.Route.Grid.edges = edges0);
  checkb "same pin access" true
    (g3.Route.Grid.pin_access_off = g1.Route.Grid.pin_access_off
    && g3.Route.Grid.pin_access_nodes = g1.Route.Grid.pin_access_nodes);
  check "no overflow" 0 (Route.Grid.overflow_count g3)

let test_reduced_layer_stack () =
  let p = placed_design closed_lib in
  let g = Route.Grid.of_placement ~layers:4 p in
  check "nl" 4 g.Route.Grid.nl;
  let top = Route.Grid.node g ~layer:4 ~i:0 ~j:0 in
  checkb "no via above M4" false (Route.Grid.has_via_edge g top);
  Alcotest.check_raises "rejects 7 layers"
    (Invalid_argument "Grid.of_placement: layers must be in 2..6") (fun () ->
      ignore (Route.Grid.of_placement ~layers:7 p))

let test_route_on_four_layers () =
  let p = placed_design ~n:150 ~utilization:0.6 closed_lib in
  let r =
    Route.Router.route
      ~config:{ Route.Router.default_config with layers = 4 } p
  in
  check "completes on 4 layers" 0 r.Route.Router.failed_subnets

let test_clear_usage () =
  let p = placed_design closed_lib in
  let r = Route.Router.route p in
  let g = r.Route.Router.grid in
  let nodes = List.init (Route.Grid.node_count g) Fun.id in
  let owners = List.map (Route.Grid.wire_owner g) nodes in
  checkb "some usage" true
    (List.exists (fun n -> Route.Grid.wire_usage g n > 0) nodes);
  Route.Grid.clear_usage g;
  checkb "cleared" true
    (List.for_all
       (fun n -> Route.Grid.wire_usage g n = 0 && Route.Grid.via_usage g n = 0)
       nodes);
  checkb "owners kept" true (List.map (Route.Grid.wire_owner g) nodes = owners)

(* The three fields of a node's packed edge word move independently:
   wire and via commits touch only their own usage, never the owner,
   and the overflowed-edge total follows both. *)
let test_edge_word_fields () =
  let p = placed_design closed_lib in
  let g = Route.Grid.of_placement p in
  let module G = Route.Grid in
  let find pred =
    let rec go n =
      if n >= G.node_count g then Alcotest.fail "no such node"
      else if G.has_wire_edge g n && G.has_via_edge g n && pred (G.wire_owner g n)
      then n
      else go (n + 1)
    in
    go 0
  in
  List.iter
    (fun (what, n) ->
      let owner = G.wire_owner g n in
      let fields () = (G.wire_owner g n, G.wire_usage g n, G.via_usage g n) in
      let expect label (o, w, v) =
        let o', w', v' = fields () in
        check (what ^ " " ^ label ^ ": owner") o o';
        check (what ^ " " ^ label ^ ": wire usage") w w';
        check (what ^ " " ^ label ^ ": via usage") v v'
      in
      expect "fresh" (owner, 0, 0);
      for _ = 1 to 3 do G.commit_wire g n done;
      expect "3 wires" (owner, 3, 0);
      G.commit_via g n;
      G.commit_via g n;
      expect "3 wires, 2 vias" (owner, 3, 2);
      check (what ^ " both overflowed") 2 (G.overflow_count g);
      G.uncommit_wire g n;
      expect "2 wires, 2 vias" (owner, 2, 2);
      G.uncommit_via g n;
      G.uncommit_via g n;
      expect "2 wires" (owner, 2, 0);
      check (what ^ " wire overflowed") 1 (G.overflow_count g);
      G.uncommit_wire g n;
      G.uncommit_wire g n;
      expect "released" (owner, 0, 0);
      check (what ^ " no overflow") 0 (G.overflow_count g))
    [
      ("free", find (fun o -> o = G.free));
      ("owned", find (fun o -> o >= 0));
      ("blocked", find (fun o -> o = G.blocked));
    ]

(* A limit of the edge word raises instead of spilling into the next
   field: a usage past [usage_mask], an uncommit of an unused edge, and
   a net id beyond the owner field. *)
let test_edge_word_guards () =
  let module G = Route.Grid in
  let raises_invalid f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  let p = placed_design closed_lib in
  let g = G.of_placement p in
  let n = G.node g ~layer:2 ~i:1 ~j:1 in
  let owner = G.wire_owner g n in
  for _ = 1 to G.usage_mask do G.commit_wire g n done;
  check "wire usage at its limit" G.usage_mask (G.wire_usage g n);
  checkb "one wire commit more raises" true
    (raises_invalid (fun () -> G.commit_wire g n));
  for _ = 1 to G.usage_mask do G.commit_via g n done;
  check "via usage at its limit" G.usage_mask (G.via_usage g n);
  checkb "one via commit more raises" true
    (raises_invalid (fun () -> G.commit_via g n));
  check "wire usage untouched" G.usage_mask (G.wire_usage g n);
  check "owner untouched" owner (G.wire_owner g n);
  let m = G.node g ~layer:2 ~i:2 ~j:1 in
  checkb "uncommitting an unused wire raises" true
    (raises_invalid (fun () -> G.uncommit_wire g m));
  checkb "uncommitting an unused via raises" true
    (raises_invalid (fun () -> G.uncommit_via g m));
  check "failed uncommits leave the word" 0
    (G.wire_usage g m + G.via_usage g m);
  (* the largest net id the owner field holds, and one more *)
  let top = (max_int lsr G.owner_shift) - 2 in
  let with_net id =
    let d = p.Place.Placement.design in
    let instances =
      Array.mapi
        (fun k (inst : Netlist.Design.instance) ->
          if k > 0 then inst
          else
            { inst with
              pin_nets = Array.map (fun v -> if v >= 0 then id else v) inst.pin_nets })
        d.Netlist.Design.instances
    in
    { p with Place.Placement.design = { d with Netlist.Design.instances } }
  in
  let g_top = G.of_placement (with_net top) in
  let seen = ref false in
  for n = 0 to G.node_count g_top - 1 do
    if G.wire_owner g_top n = top then seen := true
  done;
  checkb "the largest net id is stored" true !seen;
  checkb "a net id beyond the owner field raises" true
    (raises_invalid (fun () -> G.of_placement (with_net (top + 1))))

(* --- Router --- *)

let test_route_completes () =
  let p = placed_design closed_lib in
  let r = Route.Router.route p in
  check "no failures" 0 r.Route.Router.failed_subnets;
  (* every 2+ pin signal net got a route for each MST edge *)
  Array.iter
    (fun (nr : Route.Router.net_route) ->
      Array.iter
        (fun (sn : Route.Router.subnet) -> checkb "routed" true sn.routed)
        nr.subnets)
    r.routes

let test_route_subnet_count () =
  let p = placed_design closed_lib in
  let r = Route.Router.route p in
  Array.iter
    (fun (nr : Route.Router.net_route) ->
      let deg = Netlist.Design.net_degree p.design nr.net_id in
      check "k-1 subnets for k pins" (deg - 1) (Array.length nr.subnets))
    r.routes

let test_route_low_util_no_drvs () =
  let p = placed_design ~utilization:0.6 closed_lib in
  let r = Route.Router.route p in
  let s = Route.Metrics.summarize r in
  check "no drvs at 60%" 0 s.Route.Metrics.drvs

let test_use_dm1_ablation () =
  let p = placed_design closed_lib in
  let r_on = Route.Router.route p in
  let r_off =
    Route.Router.route
      ~config:{ Route.Router.default_config with use_dm1 = false } p
  in
  let s_on = Route.Metrics.summarize r_on in
  let s_off = Route.Metrics.summarize r_off in
  check "no inter-row dM1 when disabled" 0 s_off.Route.Metrics.dm1;
  checkb "dm1 available when enabled" true (s_on.Route.Metrics.dm1 >= 0)

let test_layer_breakdowns () =
  let p = placed_design closed_lib in
  let r = Route.Router.route p in
  let s = Route.Metrics.summarize r in
  let wl = Route.Metrics.per_layer_wl_um r in
  let total = Array.fold_left ( +. ) 0.0 wl in
  Alcotest.(check (float 0.01)) "per-layer sums to RWL" s.Route.Metrics.rwl_um total;
  Alcotest.(check (float 0.01)) "layer 1 is M1 WL" s.Route.Metrics.m1_wl_um wl.(1);
  let vias = Route.Metrics.vias_per_boundary r in
  check "boundary 1 is via12" s.Route.Metrics.via12 vias.(1);
  checkb "index 0 unused" true (wl.(0) = 0.0)

let test_metrics_consistency () =
  let p = placed_design closed_lib in
  let r = Route.Router.route p in
  let s = Route.Metrics.summarize r in
  let lengths = Route.Metrics.net_lengths r in
  let total = Array.fold_left ( + ) 0 lengths in
  Alcotest.(check (float 0.001)) "net lengths sum to RWL"
    s.Route.Metrics.rwl_um
    (float_of_int total /. 1000.0);
  checkb "m1 <= total" true (s.Route.Metrics.m1_wl_um <= s.Route.Metrics.rwl_um);
  (* RWL tracks HPWL: it can dip slightly below the centre-to-centre HPWL
     because routes terminate at pin access points, not pin centres, but
     it stays the same order of magnitude *)
  checkb "rwl within a factor of hpwl" true
    (s.Route.Metrics.rwl_um >= 0.5 *. s.Route.Metrics.hpwl_um
     && s.Route.Metrics.rwl_um <= 3.0 *. s.Route.Metrics.hpwl_um)

(* constructed alignment: two INVs stacked in adjacent rows with connected
   pins on the same track must be routed as a dM1 *)
let test_dm1_detected_on_aligned_pair () =
  let inv = Pdk.Libgen.find closed_lib "INV_X1" in
  let mk name nets = { Netlist.Design.inst_name = name; master = inv; pin_nets = nets } in
  let d =
    {
      Netlist.Design.name = "aligned";
      lib = closed_lib;
      instances = [| mk "a" [| -1; 0 |]; mk "b" [| 0; -1 |] |];
      nets =
        [|
          {
            Netlist.Design.net_name = "n";
            pins =
              [|
                { Netlist.Design.inst = 0; pin = 1 };  (* a.ZN, track 1 *)
                { Netlist.Design.inst = 1; pin = 0 };  (* b.A, track 0 *)
              |];
            is_clock = false;
          };
        |];
    }
  in
  let p = Place.Placement.create d ~utilization:0.1 in
  (* align a.ZN (offset track 1) with b.A (offset track 0): place b one
     site to the right of a, in the row above *)
  Place.Placement.move p 0 ~site:2 ~row:0 ~orient:Geom.Orient.N;
  Place.Placement.move p 1 ~site:3 ~row:1 ~orient:Geom.Orient.N;
  let ga = Place.Placement.pin_pos p { Netlist.Design.inst = 0; pin = 1 } in
  let gb = Place.Placement.pin_pos p { Netlist.Design.inst = 1; pin = 0 } in
  check "aligned x" ga.Geom.Point.x gb.Geom.Point.x;
  let r = Route.Router.route p in
  let s = Route.Metrics.summarize r in
  check "routed as dM1" 1 s.Route.Metrics.dm1;
  check "no via12 needed" 0 s.Route.Metrics.via12

(* misaligned pair must NOT count as dM1 and needs vias *)
let test_misaligned_pair_needs_vias () =
  let inv = Pdk.Libgen.find closed_lib "INV_X1" in
  let mk name nets = { Netlist.Design.inst_name = name; master = inv; pin_nets = nets } in
  let d =
    {
      Netlist.Design.name = "misaligned";
      lib = closed_lib;
      instances = [| mk "a" [| -1; 0 |]; mk "b" [| 0; -1 |] |];
      nets =
        [|
          {
            Netlist.Design.net_name = "n";
            pins =
              [|
                { Netlist.Design.inst = 0; pin = 1 };
                { Netlist.Design.inst = 1; pin = 0 };
              |];
            is_clock = false;
          };
        |];
    }
  in
  let p = Place.Placement.create d ~utilization:0.1 in
  Place.Placement.move p 0 ~site:2 ~row:0 ~orient:Geom.Orient.N;
  Place.Placement.move p 1 ~site:8 ~row:1 ~orient:Geom.Orient.N;
  let r = Route.Router.route p in
  let s = Route.Metrics.summarize r in
  check "not a dM1" 0 s.Route.Metrics.dm1;
  checkb "uses vias" true (s.Route.Metrics.via12 > 0)

(* alignment achieved via the flip degree of freedom must also route as a
   dM1: flip the lower INV so its mirrored ZN lines up with the upper A *)
let test_dm1_via_flip () =
  let inv = Pdk.Libgen.find closed_lib "INV_X1" in
  let mk name nets = { Netlist.Design.inst_name = name; master = inv; pin_nets = nets } in
  let d =
    {
      Netlist.Design.name = "flip";
      lib = closed_lib;
      instances = [| mk "a" [| -1; 0 |]; mk "b" [| 0; -1 |] |];
      nets =
        [|
          {
            Netlist.Design.net_name = "n";
            pins =
              [|
                { Netlist.Design.inst = 0; pin = 1 };
                { Netlist.Design.inst = 1; pin = 0 };
              |];
            is_clock = false;
          };
        |];
    }
  in
  let p = Place.Placement.create d ~utilization:0.1 in
  (* flipped a: ZN moves from track 1 to track 0; b directly above at the
     same site aligns its A (track 0) *)
  Place.Placement.move p 0 ~site:3 ~row:0 ~orient:Geom.Orient.FN;
  Place.Placement.move p 1 ~site:3 ~row:1 ~orient:Geom.Orient.N;
  let ga = Place.Placement.pin_pos p { Netlist.Design.inst = 0; pin = 1 } in
  let gb = Place.Placement.pin_pos p { Netlist.Design.inst = 1; pin = 0 } in
  check "flip aligns x" ga.Geom.Point.x gb.Geom.Point.x;
  let s = Route.Metrics.summarize (Route.Router.route p) in
  check "routed as dM1" 1 s.Route.Metrics.dm1

let test_router_deterministic () =
  let p = placed_design closed_lib in
  let s1 = Route.Metrics.summarize (Route.Router.route p) in
  let s2 = Route.Metrics.summarize (Route.Router.route p) in
  check "same dm1" s1.Route.Metrics.dm1 s2.Route.Metrics.dm1;
  Alcotest.(check (float 0.0001)) "same rwl" s1.Route.Metrics.rwl_um
    s2.Route.Metrics.rwl_um

let test_openm1_routes () =
  let lib = Pdk.Libgen.generate (Pdk.Tech.default Pdk.Cell_arch.Open_m1) in
  let p = placed_design lib in
  let r = Route.Router.route p in
  let s = Route.Metrics.summarize r in
  check "no failures" 0 r.Route.Router.failed_subnets;
  checkb "openm1 has baseline dm1" true (s.Route.Metrics.dm1 > 0)

(* the O(1) overflowed-edge count always matches the full-edge-scan
   oracle, and the router's per-net overflow count matches an
   independent replay that recounts every edge's usage from all stored
   paths, never from the grid's arrays — after rip-up under
   congestion *)
let test_overflow_count () =
  let p = placed_design ~n:400 ~utilization:0.85 closed_lib in
  let cfg = { Route.Router.default_config with layers = 3; ripup_passes = 1 } in
  let r = Route.Router.route ~config:cfg p in
  let g = r.Route.Router.grid in
  check "O(1) count = scan" (Route.Grid.overflow_count_scan g)
    (Route.Grid.overflow_count g);
  let iter_codes f =
    Array.iter
      (fun (nr : Route.Router.net_route) ->
        Array.iter
          (fun (sn : Route.Router.subnet) -> Array.iter (f nr) sn.path)
          nr.subnets)
      r.Route.Router.routes
  in
  (* packed codes are distinct per edge: wire and via edges differ in
     the low bit *)
  let usage = Hashtbl.create 4096 in
  let used c = Option.value ~default:0 (Hashtbl.find_opt usage c) in
  iter_codes (fun _ c -> Hashtbl.replace usage c (used c + 1));
  let replayed = Hashtbl.create 64 in
  iter_codes (fun nr c ->
      if used c > 1 then begin
        let id = nr.Route.Router.net_id in
        let v = Option.value ~default:0 (Hashtbl.find_opt replayed id) in
        Hashtbl.replace replayed id (v + 1)
      end);
  checkb "congested: some net crosses overflow" true (Hashtbl.length replayed > 0);
  Array.iter
    (fun (nr : Route.Router.net_route) ->
      check "net_overflow = replay"
        (Option.value ~default:0 (Hashtbl.find_opt replayed nr.net_id))
        (Route.Router.net_overflow g nr))
    r.Route.Router.routes

(* [route.bq_pushes] counts each route's pushes once: two back-to-back
   routes add identical increments (the open list is reused across
   routes, so its push total must be read as a per-route delta), and the
   increment does not depend on [--jobs]. The router runs on the calling
   domain, so a route at [--jobs 4] starts no pool task. A small search
   margin and tile let several tiles route nets in the tiled initial
   pass. *)
let test_bq_pushes_per_route () =
  let p = placed_design ~n:400 ~utilization:0.85 closed_lib in
  let config =
    {
      Route.Router.default_config with
      layers = 3;
      search_margin = 2;
      shard_tracks = 24;
    }
  in
  let pushes = Obs.counter "route.bq_pushes" in
  let shard_nets = Obs.counter "route.shard_nets" in
  let tasks = Obs.counter "exec.tasks" in
  let was = Obs.enabled () and jobs = Exec.jobs () in
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled was;
      Exec.set_jobs jobs)
    (fun () ->
      Obs.set_enabled true;
      let increment j =
        Exec.set_jobs j;
        let v0 = Obs.Counter.value pushes in
        ignore (Route.Router.route ~config p);
        Obs.Counter.value pushes - v0
      in
      let s0 = Obs.Counter.value shard_nets in
      let a = increment 1 in
      checkb "several nets routed in tiles" true
        (Obs.Counter.value shard_nets - s0 >= 10);
      let b = increment 1 in
      let t0 = Obs.Counter.value tasks in
      let c = increment 4 in
      checkb "pushes counted" true (a > 0);
      check "back-to-back routes add the same" a b;
      check "same at --jobs 4" a c;
      check "no pool task at --jobs 4" 0 (Obs.Counter.value tasks - t0))

(* --- Route bytes golden ---

   Pins the router's exact output on m0/16 placements: the MD5 of every
   net's id followed by each subnet's routed flag and packed path, plus
   the failed-subnet count and the overflowed-edge count. The first
   three constants were captured before the open-list and search-context
   rework, the last two before the expansion loop's costs and heuristic
   were inlined; any change to search order, tie-breaking, pruning or
   edge costs that alters a single routed edge changes the digest. *)

let route_bytes_digest (r : Route.Router.result) =
  let b = Buffer.create (1 lsl 16) in
  let add_int v =
    Buffer.add_string b (string_of_int v);
    Buffer.add_char b ' '
  in
  Array.iter
    (fun (nr : Route.Router.net_route) ->
      add_int nr.net_id;
      Array.iter
        (fun (sn : Route.Router.subnet) ->
          add_int (if sn.routed then 1 else 0);
          add_int (Array.length sn.path);
          Array.iter add_int sn.path)
        nr.subnets;
      Buffer.add_char b '\n')
    r.routes;
  add_int r.failed_subnets;
  add_int (Route.Grid.overflow_count r.grid);
  Digest.to_hex (Digest.string (Buffer.contents b))

type golden = {
  g_name : string;
  g_arch : Pdk.Cell_arch.t;
  g_layers : int;
  g_use_dm1 : bool;
  g_digest : string;
  g_failed : int;
  g_overflow : int;
}

(* The 6-layer ClosedM1 case is the configuration every flow routes
   with; the [use_dm1 = false] case pins the inter-row M1 gate. *)
let route_golden_cases =
  let case g_name g_arch g_layers ?(g_use_dm1 = true) g_digest g_failed
      g_overflow =
    { g_name; g_arch; g_layers; g_use_dm1; g_digest; g_failed; g_overflow }
  in
  [
    case "m0/16 ClosedM1 3 layers" Pdk.Cell_arch.Closed_m1 3
      "8eccfbd1c90de9a2ad3ab36bb292ee00" 0 182;
    case "m0/16 OpenM1 3 layers" Pdk.Cell_arch.Open_m1 3
      "a7c9c7fbc4f9f4d9f80c655951d54c2e" 0 73;
    case "m0/16 Conventional12" Pdk.Cell_arch.Conventional12 6
      "9fa053af1846e0a8ad2478211d94bca9" 0 0;
    case "m0/16 ClosedM1 6 layers" Pdk.Cell_arch.Closed_m1 6
      "79069069b7868bdff033763025683651" 0 0;
    case "m0/16 ClosedM1 6 layers no dM1" Pdk.Cell_arch.Closed_m1 6
      ~g_use_dm1:false "cd63efb3c267f7df910606dbf8dbc0fa" 0 0;
  ]

let golden_route c =
  let p =
    Report.Flow.prepare ~scale:16 ~utilization:0.75 Netlist.Designs.M0 c.g_arch
  in
  Route.Router.route
    ~config:
      { Route.Router.default_config with
        layers = c.g_layers; use_dm1 = c.g_use_dm1 }
    p

let test_route_bytes_golden c () =
  let r = golden_route c in
  check (c.g_name ^ " failed subnets") c.g_failed r.failed_subnets;
  check (c.g_name ^ " overflowed edges") c.g_overflow
    (Route.Grid.overflow_count r.grid);
  Alcotest.(check string) (c.g_name ^ " route bytes") c.g_digest
    (route_bytes_digest r)

(* Each domain keeps one search context and reuses it across routes,
   growing it only for a larger grid. Reuse must not move a routed edge:
   a golden case routed after a larger grid on the same domain, across
   the generation restart, and as pool tasks at [--jobs 4], keeps its
   digest, and the repeat on the same domain allocates no scratch. *)
let test_scratch_reuse_invisible () =
  let small = List.nth route_golden_cases 0
  and large = List.nth route_golden_cases 2 in
  let allocs = Obs.counter "route.scratch_allocs" in
  let was = Obs.enabled () and jobs = Exec.jobs () in
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled was;
      Exec.set_jobs jobs)
    (fun () ->
      Obs.set_enabled true;
      Exec.set_jobs 1;
      let r_small = golden_route small in
      Alcotest.(check string) (small.g_name ^ " first") small.g_digest
        (route_bytes_digest r_small);
      let r_large = golden_route large in
      checkb "second grid is larger" true
        (Route.Grid.node_count r_large.grid
        > Route.Grid.node_count r_small.grid);
      let a0 = Obs.Counter.value allocs in
      let r = golden_route small in
      check "repeat allocates no scratch" 0 (Obs.Counter.value allocs - a0);
      Alcotest.(check string) (small.g_name ^ " after a larger grid")
        small.g_digest (route_bytes_digest r);
      (* A route that starts just below the generation restart crosses
         it: stamps from before the restart must not match after it. *)
      let module T = Route.Router.Testing in
      let start = T.generation_reset - 64 in
      T.set_generation start;
      let r = golden_route small in
      checkb "the route crossed the restart" true (T.generation () < start);
      Alcotest.(check string) (small.g_name ^ " across the restart")
        small.g_digest (route_bytes_digest r);
      Exec.set_jobs 4;
      let cases = [ small; large; small; small ] in
      let futs =
        List.map
          (fun c -> Exec.submit (fun () -> route_bytes_digest (golden_route c)))
          cases
      in
      List.iter2
        (fun c fut ->
          Alcotest.(check string) (c.g_name ^ " as a pool task") c.g_digest
            (Exec.Future.await fut))
        cases futs)

let () =
  Alcotest.run "route"
    [
      ( "heap",
        [
          Alcotest.test_case "basic" `Quick test_heap_basic;
          QCheck_alcotest.to_alcotest prop_heap_sorts;
        ] );
      ( "bqueue",
        [
          Alcotest.test_case "basic" `Quick test_bqueue_basic;
          Alcotest.test_case "pool growth and reuse" `Quick
            test_bqueue_pool_growth_and_reuse;
          QCheck_alcotest.to_alcotest prop_bqueue_matches_heap;
        ] );
      ( "stampset", [ Alcotest.test_case "basic" `Quick test_stampset ] );
      ( "grid",
        [
          Alcotest.test_case "geometry" `Quick test_grid_geometry;
          Alcotest.test_case "edges" `Quick test_grid_edges;
          Alcotest.test_case "pin access" `Quick test_grid_pin_access_nonempty;
          Alcotest.test_case "pin blockage" `Quick test_grid_pin_blockage_ownership;
          Alcotest.test_case "conv12 rails" `Quick test_conv12_blocks_inter_row_m1;
          Alcotest.test_case "m2 power rails" `Quick test_m2_power_rails_blocked;
          Alcotest.test_case "pdn stripes" `Quick test_pdn_stripes;
          Alcotest.test_case "built afresh" `Quick test_grid_built_afresh;
          Alcotest.test_case "reduced layers" `Quick test_reduced_layer_stack;
          Alcotest.test_case "route on 4 layers" `Quick test_route_on_four_layers;
          Alcotest.test_case "clear usage" `Quick test_clear_usage;
          Alcotest.test_case "edge word fields" `Quick test_edge_word_fields;
          Alcotest.test_case "edge word guards" `Quick test_edge_word_guards;
        ] );
      ( "router",
        [
          Alcotest.test_case "completes" `Quick test_route_completes;
          Alcotest.test_case "subnet count" `Quick test_route_subnet_count;
          Alcotest.test_case "low util no drvs" `Quick test_route_low_util_no_drvs;
          Alcotest.test_case "use_dm1 ablation" `Quick test_use_dm1_ablation;
          Alcotest.test_case "deterministic" `Quick test_router_deterministic;
          Alcotest.test_case "openm1 routes" `Quick test_openm1_routes;
          Alcotest.test_case "overflow count" `Quick test_overflow_count;
          Alcotest.test_case "bq_pushes per route" `Quick
            test_bq_pushes_per_route;
        ] );
      ( "route bytes",
        List.map
          (fun c ->
            Alcotest.test_case c.g_name `Quick (test_route_bytes_golden c))
          route_golden_cases
        @ [
            Alcotest.test_case "reuse is invisible" `Quick
              test_scratch_reuse_invisible;
          ] );
      ( "metrics",
        [
          Alcotest.test_case "consistency" `Quick test_metrics_consistency;
          Alcotest.test_case "layer breakdowns" `Quick test_layer_breakdowns;
          Alcotest.test_case "dm1 aligned pair" `Quick test_dm1_detected_on_aligned_pair;
          Alcotest.test_case "dm1 via flip" `Quick test_dm1_via_flip;
          Alcotest.test_case "misaligned needs vias" `Quick test_misaligned_pair_needs_vias;
        ] );
    ]
