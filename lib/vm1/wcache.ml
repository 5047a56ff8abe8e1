(* Canonical-window memo-cache. See the .mli for the soundness argument;
   the implementation notes here are about the two delicate parts.

   Canonical form: the serialization below covers everything the window
   solvers read — candidate lattices, pin geometries, candidate
   penalties, net weights and memberships, pair structure, fixed
   blockage, the architecture parameters — with every coordinate rebased
   to the window origin (sites/rows relative to site_lo/row_lo, DBU
   relative to site_lo * site_width / row_lo * row_height). Pin geometry
   is affine in the cell origin, so a window and its (dx, dy)-translated
   copy serialize to identical bytes; anything that is NOT translation-
   invariant (e.g. a congestion-derived candidate_cost, or die-boundary
   clipping of the candidate lattice) shows up in the serialized content
   and keeps such windows apart. Array orders (cells, candidates, nets,
   pairs) are part of the canonical form on purpose: they fix the
   solvers' float-summation order, so key equality implies bit-identical
   solver trajectories.

   LRU: a doubly-linked recency list over the nodes of a Hashtbl. The
   table is only ever probed by key (find_opt/replace/remove) — eviction
   follows the list, not the table — so lookup results never depend on
   hash order. *)

type entry = {
  assignment : int array;
  stats : Scp_solver.stats;
}

type node = {
  n_key : string;
  n_entry : entry;
  mutable prev : node option;
  mutable next : node option;
}

type t = {
  capacity : int;
  tbl : (string, node) Hashtbl.t;
  mutable head : node option;  (* most recently used *)
  mutable tail : node option;  (* eviction end *)
  mutable hits : int;
  mutable misses : int;
}

(* Handles created once: serve-engine caches live on pool worker domains
   and a per-call registry lookup would contend on the registry lock. *)
let c_hits = Obs.counter "distopt.wcache_hits"
let c_misses = Obs.counter "distopt.wcache_misses"
let g_entries = Obs.gauge "distopt.wcache_entries"

let default_capacity = 4096

let create ?(capacity = default_capacity) () =
  {
    capacity = max 1 capacity;
    tbl = Hashtbl.create 256;
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
  }

let length t = Hashtbl.length t.tbl
let stats t = (t.hits, t.misses)

let[@vm1.hot] unlink t n =
  (match n.prev with
  | Some p -> p.next <- n.next
  | None -> t.head <- n.next);
  (match n.next with
  | Some s -> s.prev <- n.prev
  | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let[@vm1.hot] push_front t n =
  n.next <- t.head;
  (match t.head with
  | Some h -> h.prev <- Some n
  | None -> t.tail <- Some n);
  t.head <- Some n

let[@vm1.hot] find t key =
  match Hashtbl.find_opt t.tbl key with
  | Some n ->
    t.hits <- t.hits + 1;
    Obs.Counter.incr c_hits;
    unlink t n;
    push_front t n;
    Some n.n_entry
  | None ->
    t.misses <- t.misses + 1;
    Obs.Counter.incr c_misses;
    None

let add t key entry =
  (match Hashtbl.find_opt t.tbl key with
  | Some old ->
    unlink t old;
    Hashtbl.remove t.tbl key
  | None -> ());
  let n = { n_key = key; n_entry = entry; prev = None; next = None } in
  push_front t n;
  Hashtbl.replace t.tbl key n;
  if Hashtbl.length t.tbl > t.capacity then begin
    match t.tail with
    | Some lru ->
      unlink t lru;
      Hashtbl.remove t.tbl lru.n_key
    | None -> ()
  end;
  Obs.Gauge.set g_entries (float_of_int (Hashtbl.length t.tbl))

(* --- the canonical key --- *)

(* Binary, fixed-width fields: keys are computed on the hot path (every
   window of every batch when a cache is attached), so the encoding
   avoids per-token string allocation. Fixed-width ints self-delimit;
   strings carry a length prefix. *)
let add_int b v = Buffer.add_int64_le b (Int64.of_int v)

(* exact bits, not a decimal rendering: two floats must collide only
   when they are the same double *)
let add_float b v = Buffer.add_int64_le b (Int64.bits_of_float v)

let add_str b s =
  add_int b (String.length s);
  Buffer.add_string b s

let orient_code = function
  | Geom.Orient.N -> 0
  | Geom.Orient.FN -> 1
  | Geom.Orient.S -> 2
  | Geom.Orient.FS -> 3

(* A candidate as one int: site offset, then row offset biased into
   [row_bits] bits, then the 2-bit orientation code. Distinct
   candidates pack to distinct ints while row offsets stay within
   +-2^(row_bits - 1) of the window's low row, far beyond any die. *)
let row_bits = 20
let row_bias = 1 lsl (row_bits - 1)

let pack_cand ~ds ~dr o =
  if dr < -row_bias || dr >= row_bias then
    invalid_arg "Wcache.key: row offset out of range";
  (((ds lsl row_bits) lor (dr + row_bias)) lsl 2) lor orient_code o

let key ~mode (p : Wproblem.t) =
  let b = Buffer.create 1024 in
  let tech = p.Wproblem.placement.Place.Placement.tech in
  let sw = tech.Pdk.Tech.site_width and rh = tech.Pdk.Tech.row_height in
  let x0 = p.Wproblem.site_lo * sw and y0 = p.Wproblem.row_lo * rh in
  (* The per-candidate geometry tables are a pure function of the master's
     local pin shapes, the tech pitches and the (serialized) candidate
     lattice — placed geometry is affine in the cell origin — so the
     master shapes stand in for them. Each cell names its master by its
     index in this window's first-appearance order, and a master's
     shapes follow its first appearance only. A window's masters come
     from one library, whose names are unique, so the name identifies
     the shapes. *)
  let masters = ref [] and n_masters = ref 0 in
  let add_master (m : Pdk.Stdcell.t) =
    let name = m.Pdk.Stdcell.name in
    match List.assoc_opt name !masters with
    | Some i -> add_int b i
    | None ->
      add_int b !n_masters;
      masters := (name, !n_masters) :: !masters;
      incr n_masters;
      add_str b name;
      List.iter
        (fun (pin : Pdk.Stdcell.pin) ->
          List.iter
            (fun (layer, (r : Geom.Rect.t)) ->
              add_str b (Pdk.Layer.to_string layer);
              add_int b r.Geom.Rect.lx;
              add_int b r.Geom.Rect.ly;
              add_int b r.Geom.Rect.hx;
              add_int b r.Geom.Rect.hy)
            pin.Pdk.Stdcell.shapes)
        m.Pdk.Stdcell.pins
  in
  let pins = p.Wproblem.pins in
  let add_pin q =
    let k = q * Wproblem.pin_stride in
    let owner = pins.(k) in
    add_int b owner;
    add_int b (pins.(k + 1) / 4);
    (* movable pins take their geometry from the candidate tables, which
       are serialized with the cells *)
    if owner < 0 then begin
      add_int b (pins.(k + 2) - x0);
      add_int b (pins.(k + 3) - x0);
      add_int b (pins.(k + 4) - x0);
      add_int b (pins.(k + 5) - y0)
    end
  in
  (* candidate penalties are all zero unless a congestion term is on:
     a flag word says whether their bits follow *)
  let add_costs costs =
    let rec any_set k =
      k < Array.length costs
      && ((not (Int64.equal (Int64.bits_of_float costs.(k)) 0L))
         || any_set (k + 1))
    in
    if any_set 0 then begin
      add_int b 1;
      Array.iter (add_float b) costs
    end
    else add_int b 0
  in
  Buffer.add_string b "wkey4";
  add_str b (Scp_solver.mode_to_string mode);
  add_int b (if p.Wproblem.is_open then 1 else 0);
  add_int b p.Wproblem.bw;
  add_int b p.Wproblem.bh;
  add_int b sw;
  add_int b rh;
  let params = p.Wproblem.params in
  add_float b params.Params.alpha;
  add_float b params.Params.beta;
  add_float b params.Params.epsilon;
  add_int b params.Params.gamma;
  add_int b params.Params.closed_gamma;
  add_int b params.Params.delta;
  add_int b (Array.length p.Wproblem.cells);
  let design = p.Wproblem.placement.Place.Placement.design in
  Array.iter
    (fun (c : Wproblem.cell) ->
      add_int b c.Wproblem.width;
      add_int b c.Wproblem.cur;
      add_master (Netlist.Design.instance_master design c.Wproblem.inst);
      add_int b (Array.length c.Wproblem.cands);
      Array.iter
        (fun (cand : Wproblem.candidate) ->
          add_int b
            (pack_cand
               ~ds:(cand.Wproblem.site - p.Wproblem.site_lo)
               ~dr:(cand.Wproblem.row - p.Wproblem.row_lo)
               cand.Wproblem.orient))
        c.Wproblem.cands;
      add_costs c.Wproblem.cand_cost)
    p.Wproblem.cells;
  add_int b (Array.length p.Wproblem.net_weight);
  Array.iteri
    (fun n weight ->
      let first = p.Wproblem.net_start.(n)
      and stop = p.Wproblem.net_start.(n + 1) in
      add_float b weight;
      add_int b (stop - first);
      for q = first to stop - 1 do
        add_pin q
      done)
    p.Wproblem.net_weight;
  (* the pair prefilter is a deterministic function of the nets, the
     candidate geometry envelopes and the parameters — all serialized
     above — so the pair array needs no bytes of its own *)
  Buffer.add_bytes b p.Wproblem.fixed_occ;
  Digest.to_hex (Digest.string (Buffer.contents b))
