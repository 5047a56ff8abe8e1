type config = {
  tx : int;
  ty : int;
  bw : int;
  bh : int;
  lx : int;
  ly : int;
  allow_flip : bool;
  allow_move : bool;
  mode : Scp_solver.mode;
  parallel : bool;
  candidate_cost : (site:int -> row:int -> float) option;
  wcache : Wcache.t option;
}

type stats = {
  windows : int;
  batches : int;
  total_moves : int;
}

(* Windows of one diagonal batch have pairwise-disjoint projections, so
   their subproblems are independent: extraction reads the placement,
   solving touches only problem-internal state, committing writes disjoint
   cells. A batch runs in four steps: the key phase of extraction for
   every window; with a cache attached, every key and probe; the table
   phase for the windows that must be solved; then the solves, while a
   hit replays its cached assignment into its frame and commits it with
   no tables at all. Extraction, probes, replays and commits run
   sequentially; solving fans out over domains. The result is identical
   to the sequential order. *)
(* Metric handles are created once: window solves run on worker domains,
   and a per-call registry lookup would reintroduce lock contention
   there. Counter bumps and histogram observations are domain-safe. *)
let c_windows_solved = Obs.counter "scp.windows_solved"
let c_moves = Obs.counter "scp.moves"
let c_tables_built = Obs.counter "distopt.tables_built"
let h_window_moves = Obs.histogram "distopt.window_moves"

(* Allocation-pressure gauge: minor words burned per window across a
   whole [run]. The hot-alloc lint (vm1lint) bounds what the annotated
   paths may allocate structurally; this gauge is the runtime check
   that the aggregate stays flat as designs scale. Coordinator-domain
   words only — worker-domain minor heaps are invisible to
   [Gc.minor_words] here, which is fine: extract/commit (the paths the
   lint ratchets) run on the coordinator. *)
let g_minor_words = Obs.gauge "distopt.minor_words_per_window"

(* Per-window attribution span: identifies the window (grid indices,
   site/row origin, DBU bounding box) and carries the before/after QoR
   counts [vm1trace attribute] joins on. The QoR recounts only run while
   instrumentation is on or a cache entry will keep them; results are
   unchanged either way. *)
let window_attrs (w : Window.t) (tech : Pdk.Tech.t) =
  if not (Obs.enabled ()) then []
  else begin
    let sw = tech.Pdk.Tech.site_width and rh = tech.Pdk.Tech.row_height in
    [
      ("ix", `Int w.Window.ix);
      ("iy", `Int w.Window.iy);
      ("site_lo", `Int w.Window.site_lo);
      ("row_lo", `Int w.Window.row_lo);
      ("x0_dbu", `Int (w.Window.site_lo * sw));
      ("y0_dbu", `Int (w.Window.row_lo * rh));
      ("x1_dbu", `Int ((w.Window.site_lo + w.Window.bw) * sw));
      ("y1_dbu", `Int ((w.Window.row_lo + w.Window.bh) * rh));
    ]
  end

let add_outcome_attrs (s : Scp_solver.stats) (q0 : Wproblem.qor)
    (q1 : Wproblem.qor) =
  Obs.add_attr "moves" (`Int s.Scp_solver.moves);
  Obs.add_attr "obj0" (`Float s.Scp_solver.objective_before);
  Obs.add_attr "obj1" (`Float s.Scp_solver.objective_after);
  Obs.add_attr "hpwl0_dbu" (`Int q0.Wproblem.hpwl_dbu);
  Obs.add_attr "hpwl1_dbu" (`Int q1.Wproblem.hpwl_dbu);
  Obs.add_attr "align0" (`Int q0.Wproblem.alignments);
  Obs.add_attr "align1" (`Int q1.Wproblem.alignments);
  Obs.add_attr "ov0" (`Int q0.Wproblem.overlap_sum);
  Obs.add_attr "ov1" (`Int q1.Wproblem.overlap_sum)

let no_qor = { Wproblem.hpwl_dbu = 0; alignments = 0; overlap_sum = 0 }

(* [keep_qor]: count the before/after QoR even untraced, for a cache
   entry to carry to a later, possibly traced, hit *)
let solve_window (w : Window.t) problem ~mode ~keep_qor =
  Obs.with_span "distopt.window"
    ~attrs:(window_attrs w problem.Wproblem.placement.Place.Placement.tech)
    (fun () ->
      let qor = keep_qor || Obs.enabled () in
      let q0 = if qor then Wproblem.qor problem else no_qor in
      let s = Scp_solver.solve ~mode problem in
      let q1 = if qor then Wproblem.qor problem else no_qor in
      if Obs.enabled () then add_outcome_attrs s q0 q1;
      (s, q0, q1))

(* A cache hit replays the memoised assignment into its frame instead
   of solving. Candidate indices are translation-invariant, so the
   replay lands each cell exactly where a fresh solve of this
   (canonically equal) problem would; the cached stats and QoR are the
   fresh solve's verbatim. The window span is emitted either way so
   traces keep full coverage. *)
let replay_window (w : Window.t) (f : Wproblem.frame) (entry : Wcache.entry) =
  let tech = (f :> Wproblem.t).Wproblem.placement.Place.Placement.tech in
  Obs.with_span "distopt.window" ~attrs:(window_attrs w tech) (fun () ->
      Wproblem.replay f entry.Wcache.assignment;
      if Obs.enabled () then
        add_outcome_attrs entry.Wcache.stats entry.Wcache.qor0
          entry.Wcache.qor1;
      entry.Wcache.stats)

(* A window of a batch after extraction: a cache hit keeps only its
   key-phase frame and the cached entry; every other window has its
   solvable problem and, with a cache attached, the key to file its
   solution under. *)
type slot =
  | Replay of Wproblem.frame * Wcache.entry
  | Solve of Wproblem.t * string option

let build_tables f =
  Obs.Counter.incr c_tables_built;
  Wproblem.tables f

(* Steps 1-3 of a batch: the key phase for every window; with a cache,
   every key and probe; the table phase for the windows that must be
   solved. The cache is domain-confined, and all of this runs on the
   coordinating domain. *)
let extract_batch p params (c : config) (batch : Window.t array) =
  (* one O(instances) bucketing shared by the whole batch; rebuilt per
     batch because commits move cells between batches *)
  let rows = Wproblem.row_index p in
  let frames =
    Array.map
      (fun (w : Window.t) ->
        Wproblem.frame ?candidate_cost:c.candidate_cost ~rows p params
          ~site_lo:w.site_lo ~row_lo:w.row_lo ~bw:w.bw ~bh:w.bh
          ~movable:w.movable ~lx:c.lx ~ly:c.ly ~allow_flip:c.allow_flip
          ~allow_move:c.allow_move)
      batch
  in
  match c.wcache with
  | None -> Array.map (fun f -> Solve (build_tables f, None)) frames
  | Some cache ->
    let keys =
      Array.map
        (fun (f : Wproblem.frame) -> Wcache.key ~mode:c.mode (f :> Wproblem.t))
        frames
    in
    let cached = Array.map (Wcache.find cache) keys in
    Array.mapi
      (fun i f ->
        match cached.(i) with
        | Some entry -> Replay (f, entry)
        | None -> Solve (build_tables f, Some keys.(i)))
      frames

(* Step 4: replay the hits, solve the rest, file the solved windows in
   the cache; the total moves *)
let solve_batch ~parallel ~mode ~wcache (batch : Window.t array) slots =
  let n = Array.length slots in
  let stats = Array.make n None and entries = Array.make n None in
  let record i (s : Scp_solver.stats) =
    Obs.Counter.incr c_windows_solved;
    Obs.Counter.add c_moves s.Scp_solver.moves;
    Obs.Histogram.observe h_window_moves (float_of_int s.Scp_solver.moves);
    stats.(i) <- Some s
  in
  let miss_rev = ref [] in
  Array.iteri
    (fun i slot ->
      match slot with
      | Replay (f, entry) -> record i (replay_window batch.(i) f entry)
      | Solve (t, key) -> miss_rev := (i, t, key) :: !miss_rev)
    slots;
  let solve (i, t, key) =
    let s, qor0, qor1 =
      solve_window batch.(i) t ~mode ~keep_qor:(Option.is_some key)
    in
    record i s;
    if Option.is_some key then
      entries.(i) <-
        Some
          { Wcache.assignment = Wproblem.assignment t; stats = s; qor0; qor1 }
  in
  (* Window solves fan out over the persistent Exec pool: the worker
     domains are spawned once per process, not once per batch, so the
     only Domain.spawn cost is warm-up (the exec.domain_spawns counter
     stays flat across batches). Per-index writes keep the result
     identical to the sequential order for every pool size. *)
  let misses = Array.of_list (List.rev !miss_rev) in
  let m = Array.length misses in
  if (not parallel) || m <= 1 then Array.iter solve misses
  else Exec.parallel_for m (fun j -> solve misses.(j));
  (* inserts stay on the calling domain, in window order *)
  Option.iter
    (fun cache ->
      Array.iteri
        (fun i slot ->
          match (slot, entries.(i)) with
          | Solve (_, Some key), Some entry -> Wcache.add cache key entry
          | _ -> ())
        slots)
    wcache;
  Array.fold_left
    (fun acc s ->
      match s with Some s -> acc + s.Scp_solver.moves | None -> acc)
    0 stats

let commit_slot = function
  | Replay (f, _) -> Wproblem.commit (f :> Wproblem.t)
  | Solve (t, _) -> Wproblem.commit t

let run (p : Place.Placement.t) (params : Params.t) (c : config) =
  Obs.with_span "distopt.run" (fun () ->
      let windows = Window.partition p ~tx:c.tx ~ty:c.ty ~bw:c.bw ~bh:c.bh in
      let batches = Window.diagonal_batches windows in
      Obs.add_attr "windows" (`Int (Array.length windows));
      Obs.add_attr "batches" (`Int (List.length batches));
      let mw0 = if Obs.enabled () then Gc.minor_words () else 0. in
      let total_moves = ref 0 in
      List.iter
        (fun batch ->
          Obs.with_span "distopt.batch"
            ~attrs:[ ("windows", `Int (Array.length batch)) ]
            (fun () ->
              let slots =
                Obs.with_span "distopt.extract" (fun () ->
                    extract_batch p params c batch)
              in
              let moves =
                Obs.with_span "distopt.solve" (fun () ->
                    let m =
                      solve_batch ~parallel:c.parallel ~mode:c.mode
                        ~wcache:c.wcache batch slots
                    in
                    Obs.add_attr "moves" (`Int m);
                    m)
              in
              total_moves := !total_moves + moves;
              Obs.with_span "distopt.commit" (fun () ->
                  Array.iter commit_slot slots)))
        batches;
      if Obs.enabled () && Array.length windows > 0 then
        Obs.Gauge.set g_minor_words
          ((Gc.minor_words () -. mw0) /. float_of_int (Array.length windows));
      {
        windows = Array.length windows;
        batches = List.length batches;
        total_moves = !total_moves;
      })
