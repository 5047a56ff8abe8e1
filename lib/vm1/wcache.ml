(* Canonical-window memo-cache. See the .mli for the soundness argument;
   the implementation notes here are about the two delicate parts.

   Canonical form: the serialization below covers everything the window
   solvers read — candidate lists, pin geometries, candidate
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
  qor0 : Wproblem.qor;
  qor1 : Wproblem.qor;
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

let imax (a : int) b = if a >= b then a else b

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

(* The key is hashed from one growable byte buffer. Ints are zigzag
   LEB128 varints, so the small counts, offsets and rebased coordinates
   that make up most of a key take one or two bytes each; floats are
   their exact 8 bits (two floats collide only when they are the same
   double). Every variable-length field carries its length first, so
   the encoding is injective. The [put_*] writers do not check for
   room: their callers [reserve] it first, at most [max_varint] bytes a
   varint. *)
type enc = {
  mutable buf : Bytes.t;
  mutable len : int;
}

let max_varint = 9

let reserve e n =
  if e.len + n > Bytes.length e.buf then begin
    let b = Bytes.create (imax (e.len + n) (2 * Bytes.length e.buf)) in
    Bytes.blit e.buf 0 b 0 e.len;
    e.buf <- b
  end

let[@inline] put_byte e v =
  Bytes.unsafe_set e.buf e.len (Char.unsafe_chr v);
  e.len <- e.len + 1

(* unsigned LEB128 *)
let rec put_uint e u =
  if u land lnot 0x7f = 0 then put_byte e u
  else begin
    put_byte e (0x80 lor (u land 0x7f));
    put_uint e (u lsr 7)
  end

(* 0, -1, 1, -2 ... as 0, 1, 2, 3 ... *)
let[@inline] zigzag v = (v lsl 1) lxor (v asr (Sys.int_size - 1))

let[@inline] put_int e v =
  let u = zigzag v in
  if u land lnot 0x7f = 0 then put_byte e u else put_uint e u

let add_byte e v =
  reserve e 1;
  put_byte e v

let add_int e v =
  reserve e max_varint;
  put_int e v

let add_float e v =
  reserve e 8;
  let bits = Int64.bits_of_float v in
  for i = 0 to 7 do
    put_byte e (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xff)
  done

let add_str e s =
  let n = String.length s in
  add_int e n;
  reserve e n;
  Bytes.blit_string s 0 e.buf e.len n;
  e.len <- e.len + n

let orient_code = function
  | Geom.Orient.N -> 0
  | Geom.Orient.FN -> 1
  | Geom.Orient.S -> 2
  | Geom.Orient.FS -> 3

(* A byte map as runs: each run's byte, then its length. Fixed
   occupancy is mostly empty sites, so it takes a few bytes per blocked
   stretch. *)
let add_runs e b =
  let n = Bytes.length b in
  let rec run_end v i =
    if i < n && Char.equal (Bytes.get b i) v then run_end v (i + 1) else i
  in
  let rec go i =
    if i < n then begin
      let v = Bytes.get b i in
      let j = run_end v (i + 1) in
      add_byte e (Char.code v);
      add_int e (j - i);
      go j
    end
  in
  go 0

let key ~mode (p : Wproblem.t) =
  let cells = p.Wproblem.cells and pins = p.Wproblem.pins in
  let e = { buf = Bytes.create 4096; len = 0 } in
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
  let masters = Array.make (Array.length cells) "" and n_masters = ref 0 in
  let rec master_index name i =
    if i = !n_masters then -1
    else if String.equal masters.(i) name then i
    else master_index name (i + 1)
  in
  let add_master (m : Pdk.Stdcell.t) =
    let name = m.Pdk.Stdcell.name in
    let i = master_index name 0 in
    if i >= 0 then add_int e i
    else begin
      add_int e !n_masters;
      masters.(!n_masters) <- name;
      incr n_masters;
      add_str e name;
      List.iter
        (fun (pin : Pdk.Stdcell.pin) ->
          List.iter
            (fun (layer, (r : Geom.Rect.t)) ->
              add_str e (Pdk.Layer.to_string layer);
              add_int e r.Geom.Rect.lx;
              add_int e r.Geom.Rect.ly;
              add_int e r.Geom.Rect.hx;
              add_int e r.Geom.Rect.hy)
            pin.Pdk.Stdcell.shapes)
        m.Pdk.Stdcell.pins
    end
  in
  (* a cell's candidates: candidate 0 rebased to the window origin, then
     every other one as its offset from candidate 0, in generation
     order. An offset of -8..7 sites and -2..1 rows, in candidate 0's
     orientation or its flip, is one byte below 0x80 (the zigzagged
     offsets and a flip bit); any other is 0x80, then the zigzagged
     offsets and the orientation code in full. *)
  let add_cands (cands : Wproblem.candidate array) =
    let c0 = cands.(0) in
    let n = Array.length cands in
    let o0 = orient_code c0.Wproblem.orient
    and o1 = orient_code (Geom.Orient.flip_y c0.Wproblem.orient) in
    add_int e n;
    add_int e (c0.Wproblem.site - p.Wproblem.site_lo);
    add_int e (c0.Wproblem.row - p.Wproblem.row_lo);
    add_byte e o0;
    reserve e (n * (2 + (2 * max_varint)));
    for k = 1 to n - 1 do
      let c = cands.(k) in
      let s = zigzag (c.Wproblem.site - c0.Wproblem.site)
      and r = zigzag (c.Wproblem.row - c0.Wproblem.row)
      and o = orient_code c.Wproblem.orient in
      if s land lnot 15 = 0 && r land lnot 3 = 0 && (o = o0 || o = o1) then
        put_byte e ((s lsl 3) lor (r lsl 1) lor if o = o0 then 0 else 1)
      else begin
        put_byte e 0x80;
        put_uint e s;
        put_uint e r;
        put_byte e o
      end
    done
  in
  (* candidate penalties are all zero unless a congestion term is on:
     a flag byte says whether their bits follow *)
  let add_costs costs =
    let rec any_set k =
      k < Array.length costs
      && (Int64.bits_of_float costs.(k) <> 0L || any_set (k + 1))
    in
    if any_set 0 then begin
      add_byte e 1;
      Array.iter (add_float e) costs
    end
    else add_byte e 0
  in
  (* the weight of almost every net is exactly 1.0: a flag byte *)
  let add_weight w =
    if Float.equal w 1.0 then add_byte e 0
    else begin
      add_byte e 1;
      add_float e w
    end
  in
  let add_pin q =
    let k = q * Wproblem.pin_stride in
    let owner = pins.(k) in
    reserve e (6 * max_varint);
    put_int e owner;
    put_int e (pins.(k + 1) / 4);
    (* movable pins take their geometry from the candidates and the
       master shapes, serialized with the cells *)
    if owner < 0 then begin
      put_int e (pins.(k + 2) - x0);
      put_int e (pins.(k + 3) - x0);
      put_int e (pins.(k + 4) - x0);
      put_int e (pins.(k + 5) - y0)
    end
  in
  add_str e "wkey5";
  add_str e (Scp_solver.mode_to_string mode);
  add_int e (if p.Wproblem.is_open then 1 else 0);
  add_int e p.Wproblem.bw;
  add_int e p.Wproblem.bh;
  add_int e sw;
  add_int e rh;
  let params = p.Wproblem.params in
  add_float e params.Params.alpha;
  add_float e params.Params.beta;
  add_float e params.Params.epsilon;
  add_int e params.Params.gamma;
  add_int e params.Params.closed_gamma;
  add_int e params.Params.delta;
  add_int e (Array.length cells);
  let design = p.Wproblem.placement.Place.Placement.design in
  Array.iter
    (fun (c : Wproblem.cell) ->
      add_int e c.Wproblem.width;
      add_int e c.Wproblem.cur;
      add_master (Netlist.Design.instance_master design c.Wproblem.inst);
      add_cands c.Wproblem.cands;
      add_costs c.Wproblem.cand_cost)
    cells;
  add_int e (Array.length p.Wproblem.net_weight);
  Array.iteri
    (fun n weight ->
      let first = p.Wproblem.net_start.(n)
      and stop = p.Wproblem.net_start.(n + 1) in
      add_weight weight;
      add_int e (stop - first);
      for q = first to stop - 1 do
        add_pin q
      done)
    p.Wproblem.net_weight;
  (* the pair prefilter is a deterministic function of the nets, the
     candidate geometry envelopes and the parameters — all serialized
     above — so the pair array needs no bytes of its own *)
  add_runs e p.Wproblem.fixed_occ;
  Digest.to_hex (Digest.subbytes e.buf 0 e.len)
