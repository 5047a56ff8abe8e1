(* Oracle tests for the window solver's two shortcuts: the sequential
   `Portfolio (exact on a clone, then greedy, then annealing continued
   from greedy's state) and shove_plan's per-row cell index. Each must
   reproduce, bit for bit, the formulation it replaced; those
   formulations are kept here as references:

   - the raced portfolio's rule: every admissible solver on its own
     clone, run in turn, winner = best objective with ties going
     exact > greedy > anneal;
   - shove_plan with a scan of every cell for the target row.

   Windows come from small m0 (ClosedM1) and aes (OpenM1) placements,
   with move and flip candidates, vertical moves, and states both fresh
   and after earlier moves.

   A last case pins the whole-placement profile of the portfolio on
   jpeg at scale 4 (ClosedM1): a cold DistOpt pass that fills a window
   cache and a warm pass that replays from it. Its windows, batches,
   moves, HPWL, alignments, win counts and cache hits are deterministic,
   so any drift is a behaviour change. *)

module W = Vm1.Wproblem
module S = Vm1.Scp_solver

let placements =
  lazy
    (List.map
       (fun (name, arch) ->
         let p = Report.Flow.prepare ~scale:32 name arch in
         (p, Vm1.Params.default p.Place.Placement.tech))
       [
         (Netlist.Designs.M0, Pdk.Cell_arch.Closed_m1);
         (Netlist.Designs.Aes, Pdk.Cell_arch.Open_m1);
       ])

(* --- the pre-change references --- *)

let reference_portfolio t =
  let admissible =
    Array.length t.W.cells <= 6 && S.exact_search_space t <= 50_000
  in
  let racers =
    (if admissible then [ ("exact", `Exact) ] else [])
    @ [ ("greedy", `Greedy); ("anneal", `Anneal) ]
  in
  let results =
    List.map
      (fun (name, mode) ->
        let p = W.clone t in
        let s = S.solve ~mode p in
        (name, p, s))
      racers
  in
  let best = ref None in
  List.iter
    (fun ((_, _, (s : S.stats)) as r) ->
      match !best with
      | Some (_, _, (b : S.stats)) when s.objective_after >= b.objective_after
        -> ()
      | _ -> best := Some r)
    results;
  match !best with
  | None -> assert false
  | Some (name, p, s) ->
    W.set_assignment t (W.assignment p);
    (name, s)

let occ_idx (t : W.t) ~site ~row =
  ((row - t.row_lo) * t.bw) + (site - t.site_lo)

let bump (t : W.t) ~site ~row ~width delta =
  for s = site to site + width - 1 do
    let i = occ_idx t ~site:s ~row in
    Bytes.set t.occ i (Char.chr (Char.code (Bytes.get t.occ i) + delta))
  done

let footprint_free (t : W.t) ~site ~row ~width =
  let rec go s =
    s >= site + width
    || (Bytes.get t.occ (occ_idx t ~site:s ~row) = '\000' && go (s + 1))
  in
  go site

let encode_cand (t : W.t) ~site ~row ~orient =
  let o = if Geom.Orient.is_flipped orient then 1 else 0 in
  ((((row - t.row_lo) * (t.bw + 1)) + (site - t.site_lo)) * 2) + o

let max_plan_moves = 8

let reference_shove_plan (t : W.t) ~cell ~cand =
  let c = t.cells.(cell) in
  let target = c.cands.(cand) in
  let row = target.row in
  let a = target.site and b = target.site + c.width in
  let cand_at idx ~site =
    let cc = t.cells.(idx) in
    let orient = cc.cands.(cc.cur).orient in
    Hashtbl.find_opt t.cand_index.(idx) (encode_cand t ~site ~row ~orient)
  in
  let in_row = ref [] in
  Array.iteri
    (fun idx (cc : W.cell) ->
      if idx <> cell then begin
        let cur = cc.cands.(cc.cur) in
        if cur.row = row then in_row := (idx, cur.site, cc.width) :: !in_row
      end)
    t.cells;
  let asc =
    List.sort (fun (_, s1, _) (_, s2, _) -> Int.compare s1 s2) !in_row
  in
  let desc = List.rev asc in
  let moves = ref [ (cell, cand) ] in
  let count = ref 1 in
  let exception Fail in
  try
    let required = ref a in
    List.iter
      (fun (idx, site, width) ->
        if site < a && site + width > !required then begin
          let new_site = !required - width in
          incr count;
          if !count > max_plan_moves then raise Fail;
          match cand_at idx ~site:new_site with
          | Some k ->
            moves := (idx, k) :: !moves;
            required := new_site
          | None -> raise Fail
        end)
      desc;
    let required = ref b in
    List.iter
      (fun (idx, site, width) ->
        if site >= a && site < !required && site + width > a then begin
          let new_site = !required in
          incr count;
          if !count > max_plan_moves then raise Fail;
          match cand_at idx ~site:new_site with
          | Some k ->
            moves := (idx, k) :: !moves;
            required := new_site + width
          | None -> raise Fail
        end)
      asc;
    List.iter
      (fun (idx, _) ->
        let cc = t.cells.(idx) in
        let cur = cc.cands.(cc.cur) in
        bump t ~site:cur.site ~row:cur.row ~width:cc.width (-1))
      !moves;
    let ok =
      List.for_all
        (fun (idx, k) ->
          let cc = t.cells.(idx) in
          let nc = cc.cands.(k) in
          footprint_free t ~site:nc.site ~row:nc.row ~width:cc.width)
        !moves
      &&
      let rec place = function
        | [] -> true
        | (idx, k) :: rest ->
          let cc = t.cells.(idx) in
          let nc = cc.cands.(k) in
          if footprint_free t ~site:nc.site ~row:nc.row ~width:cc.width
          then begin
            bump t ~site:nc.site ~row:nc.row ~width:cc.width 1;
            let r = place rest in
            bump t ~site:nc.site ~row:nc.row ~width:cc.width (-1);
            r
          end
          else false
      in
      place !moves
    in
    List.iter
      (fun (idx, _) ->
        let cc = t.cells.(idx) in
        let cur = cc.cands.(cc.cur) in
        bump t ~site:cur.site ~row:cur.row ~width:cc.width 1)
      !moves;
    if ok then Some !moves else None
  with Fail -> None

(* --- random windows and states --- *)

type start =
  | Fresh
  | Greedy_pass  (** after one greedy pass *)
  | Random_moves of int  (** after k random feasible single-cell moves *)

let gen_start =
  QCheck2.Gen.(
    oneof
      [
        pure Fresh;
        pure Greedy_pass;
        map (fun k -> Random_moves k) (int_range 1 12);
      ])

(* design, window (sites, rows), window pick, lx, ly, flip, move, start,
   rng seed; the small windows keep exact admissible, the large ones
   give greedy and its shoves room *)
let gen_case =
  QCheck2.Gen.(
    tup9 (int_range 0 1)
      (pair (oneofl [ 10; 14; 20; 40; 80 ]) (int_range 1 4))
      (int_range 0 10_000) (int_range 1 4) (int_range 0 2) bool bool gen_start
      (int_range 0 10_000))

let problem_of_case
    (design, (bw, bh), pick, lx, ly, allow_flip, allow_move, start, seed) =
  let p, params = List.nth (Lazy.force placements) design in
  let ws = Vm1.Window.partition p ~tx:0 ~ty:0 ~bw ~bh in
  let w = ws.(pick mod Array.length ws) in
  let t =
    W.extract p params ~site_lo:w.site_lo ~row_lo:w.row_lo ~bw:w.bw ~bh:w.bh
      ~movable:w.movable ~lx ~ly ~allow_flip ~allow_move
  in
  (match start with
  | Fresh -> ()
  | Greedy_pass -> ignore (S.solve ~mode:`Greedy ~max_passes:1 t)
  | Random_moves k ->
    let rng = Random.State.make [| seed |] in
    let n = Array.length t.cells in
    for _ = 1 to k do
      let cell = Random.State.int rng n in
      let cand = Random.State.int rng (Array.length t.cells.(cell).cands) in
      if W.candidate_free t ~cell ~cand then W.apply t ~cell ~cand
    done);
  t

let print_case (design, (bw, bh), pick, lx, ly, flip, move, start, seed) =
  Printf.sprintf
    "design=%d window=%dx%d pick=%d lx=%d ly=%d flip=%b move=%b start=%s \
     seed=%d"
    design bw bh pick lx ly flip move
    (match start with
    | Fresh -> "fresh"
    | Greedy_pass -> "greedy-pass"
    | Random_moves k -> Printf.sprintf "random-%d" k)
    seed

let win_counters =
  List.map
    (fun name -> (name, Obs.counter ("distopt.portfolio_wins." ^ name)))
    [ "exact"; "greedy"; "anneal" ]

(* the sequential portfolio = the raced rule: same assignment, same
   stats, same occupancy, and the win counter of the same solver *)
let prop_portfolio_matches_reference =
  QCheck2.Test.make ~name:"sequential portfolio = raced rule" ~count:200
    ~print:print_case gen_case (fun case ->
      let t = problem_of_case case in
      let t_new = W.clone t and t_ref = W.clone t in
      let ref_winner, ref_stats = reference_portfolio t_ref in
      Obs.set_enabled true;
      let before =
        List.map (fun (n, c) -> (n, Obs.Counter.value c)) win_counters
      in
      let stats =
        Fun.protect
          ~finally:(fun () -> Obs.set_enabled false)
          (fun () -> S.solve ~mode:`Portfolio t_new)
      in
      let bumped =
        List.filter_map
          (fun (n, c) ->
            let d = Obs.Counter.value c - List.assoc n before in
            if d = 0 then None else Some (n, d))
          win_counters
      in
      stats = ref_stats
      && W.assignment t_new = W.assignment t_ref
      && Bytes.equal t_new.occ t_ref.occ
      && bumped = [ (ref_winner, 1) ])

(* the per-row index yields the full scan's plan for every (cell,
   candidate), and leaves occupancy as it found it *)
let prop_shove_plan_matches_full_scan =
  QCheck2.Test.make ~name:"indexed shove_plan = full scan" ~count:100
    ~print:print_case gen_case (fun case ->
      let t = problem_of_case case in
      let occ0 = Bytes.copy t.occ in
      let ok = ref true in
      Array.iteri
        (fun cell (c : W.cell) ->
          for cand = 0 to Array.length c.cands - 1 do
            if cand <> c.cur then begin
              let got = W.shove_plan t ~cell ~cand in
              let want = reference_shove_plan t ~cell ~cand in
              if got <> want || not (Bytes.equal t.occ occ0) then ok := false
            end
          done)
        t.cells;
      !ok)

(* --- the pinned jpeg/4 profile --- *)

let test_jpeg4_profile () =
  let p0 =
    Report.Flow.prepare ~scale:4 Netlist.Designs.Jpeg Pdk.Cell_arch.Closed_m1
  in
  let params = Vm1.Params.default p0.Place.Placement.tech in
  let cache = Vm1.Wcache.create () in
  let cfg =
    {
      Vm1.Dist_opt.tx = 0;
      ty = 0;
      bw = 40;
      bh = 6;
      lx = 3;
      ly = 1;
      allow_flip = false;
      allow_move = true;
      mode = `Portfolio;
      parallel = false;
      candidate_cost = None;
      wcache = Some cache;
    }
  in
  let wins_before =
    List.map (fun (n, c) -> (n, Obs.Counter.value c)) win_counters
  in
  Obs.set_enabled true;
  let q_cold = Place.Placement.copy p0 and q_warm = Place.Placement.copy p0 in
  let cold, warm =
    Fun.protect
      ~finally:(fun () -> Obs.set_enabled false)
      (fun () ->
        let cold = Vm1.Dist_opt.run q_cold params cfg in
        (cold, Vm1.Dist_opt.run q_warm params cfg))
  in
  let obj = Vm1.Objective.counts params q_cold in
  let hits, misses = Vm1.Wcache.stats cache in
  let wins =
    List.map
      (fun (n, c) -> (n, Obs.Counter.value c - List.assoc n wins_before))
      win_counters
  in
  let check = Alcotest.(check int) in
  check "windows" 309 cold.windows;
  check "batches" 19 cold.batches;
  check "moves" 8082 cold.total_moves;
  check "hpwl_dbu" 35688420 obj.hpwl_dbu;
  check "alignments" 838 obj.alignments;
  Alcotest.(check (list (pair string int)))
    "portfolio wins"
    [ ("exact", 14); ("greedy", 228); ("anneal", 67) ]
    wins;
  check "wcache hits" 309 hits;
  check "wcache misses" 309 misses;
  Alcotest.(check bool) "warm stats = cold stats" true (warm = cold);
  Alcotest.(check bool) "warm placement = cold placement" true
    (q_warm.xs = q_cold.xs && q_warm.ys = q_cold.ys
    && q_warm.orients = q_cold.orients)

let () =
  Alcotest.run "portfolio_oracle"
    [
      ( "oracles",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_portfolio_matches_reference;
            prop_shove_plan_matches_full_scan;
          ] );
      ( "pinned",
        [
          Alcotest.test_case "jpeg/4 portfolio profile" `Quick
            test_jpeg4_profile;
        ] );
    ]
