type config = {
  ripup_passes : int;
  search_margin : int;
  use_dm1 : bool;
  layers : int;
  shard_tracks : int;
}

let default_config =
  {
    ripup_passes = 2;
    search_margin = 16;
    use_dm1 = true;
    layers = 6;
    shard_tracks = 64;
  }

(* The cost model, in DBU-equivalents: a via; each existing user of an
   edge (times pass + 1 in rip-up pass [pass]); the extra per M1 wire
   edge, as pins make M1 tracks scarcer, though a short dM1 stays the
   cheapest way to join aligned pins; and the A* heuristic's inflation,
   in percent (100 = admissible). *)
let via_cost = 72
let overflow_penalty = 600
let m1_surcharge = 6
let astar_weight_pct = 125

(* Metric handles created once, not looked up in the registry per call. *)
let c_subnets = Obs.counter "route.subnets"
let c_subnet_attempts = Obs.counter "route.subnet_attempts"
let c_ripup_nets = Obs.counter "route.ripup_nets"
let c_ripup_candidates = Obs.counter "route.ripup_candidates"
let c_failed_subnets = Obs.counter "route.failed_subnets"
let c_shard_nets = Obs.counter "route.shard_nets"
let c_deferred_nets = Obs.counter "route.deferred_nets"
let c_bq_pushes = Obs.counter "route.bq_pushes"
let c_scratch_allocs = Obs.counter "route.scratch_allocs"
let g_overflow = Obs.gauge "route.overflow_edges"

(* Allocation-pressure gauge over the whole route span, normalized per
   subnet — the runtime complement to the structural hot-alloc lint on
   the A* loop. *)
let g_minor_words = Obs.gauge "route.minor_words_per_subnet"

type edge =
  | Wire of int
  | Via of int

(* Paths are stored packed: node index shifted left one, low bit set for
   via edges. Half the memory of an [edge list] and no pointer chasing
   when committing, un-committing or measuring. *)
let edge_of_code c = if c land 1 = 1 then Via (c lsr 1) else Wire (c lsr 1)
let wire_code n = n lsl 1
let via_code n = (n lsl 1) lor 1

type subnet = {
  src : Netlist.Design.pin_ref;
  dst : Netlist.Design.pin_ref;
  mutable path : int array;
  mutable routed : bool;
}

type net_route = {
  net_id : int;
  subnets : subnet array;
}

type result = {
  grid : Grid.t;
  routes : net_route array;
  config : config;
  mutable failed_subnets : int;
}

(* --- A* open list ---

   The dial queue lives in this compilation unit, not in its own file:
   the dev profile compiles with [-opaque], so a call into another
   module is an indirect call (through [caml_apply3] for [push]) even
   when the callee is known. Here [run]'s pushes and pops are direct
   calls. *)
module Bqueue = struct
  type t = {
    mutable pool : int array;  (* entry e: value at 2e, next entry of its bucket at 2e+1 *)
    mutable npool : int;       (* entries handed out since clear *)
    mutable ends : int array;  (* bucket b: head entry at 2b, tail at 2b+1;
                                  meaningful only while b's bitmap bit is set *)
    mutable words : int array; (* occupancy bitmap, [bpw] buckets per word *)
    mutable origin : int;      (* priority mapped to bucket 0 *)
    mutable cursor : int;      (* no occupied bucket strictly below this index *)
    mutable hi : int;          (* no occupied bucket strictly above this index *)
    mutable size : int;
    mutable seeded : bool;     (* [origin] is valid *)
    mutable npush : int;
    mutable last : int;        (* priority of the last popped entry *)
  }

  let bpw = 63

  (* Bit position of an isolated bit (a power of two), via a de Bruijn
     multiply — replaces a shift loop of up to [bpw] iterations on every
     pop. The table is built from the same multiply it serves, so the
     encoding cannot drift from the lookup. *)
  let debruijn = 0x03f79d71b4ca8b09

  let ctz_table =
    let t = Array.make 64 0 in
    for bit = 0 to 62 do
      t.(((1 lsl bit) * debruijn) lsr 57 land 63) <- bit
    done;
    t

  let bit_index isolated = ctz_table.((isolated * debruijn) lsr 57 land 63)

  (* Latching [origin] this far below the first push leaves room for the
     slightly-cheaper entries that typically follow it (seeding pushes
     arrive in arbitrary priority order), so the below-origin realloc
     path stays exceptional. *)
  let origin_slack = 128

  let create ?(capacity = 1024) () =
    let cap = max 64 capacity in
    {
      pool = Array.make (2 * cap) 0;
      npool = 0;
      ends = Array.make (2 * cap) 0;
      words = Array.make ((cap + bpw - 1) / bpw) 0;
      origin = 0;
      cursor = 0;
      hi = 0;
      size = 0;
      seeded = false;
      npush = 0;
      last = 0;
    }

  let is_empty t = t.size = 0
  let size t = t.size
  let pushes t = t.npush
  let last_prio t = t.last

  let occupied words b = words.(b / bpw) land (1 lsl (b mod bpw)) <> 0

  (* Reallocate so at least [nbuckets] bucket slots exist, shifting every
     live bucket up by [shift] slots (used to lower [origin]). [nbuckets]
     must be derived from [t.hi], the top of the occupied span — never
     from the current capacity, which would compound geometrically across
     calls. Entries stay where they are in the pool; only the bucket ends
     and the bitmap move. *)
  let[@vm1.cold] realloc t ~nbuckets ~shift =
    let old = Array.length t.ends / 2 in
    let cap = ref old in
    while !cap < nbuckets do cap := !cap * 2 done;
    let ends = Array.make (2 * !cap) 0 in
    let live = min old (!cap - shift) in
    Array.blit t.ends 0 ends (2 * shift) (2 * live);
    let words = Array.make ((!cap + bpw - 1) / bpw) 0 in
    for b = 0 to live - 1 do
      if occupied t.words b then begin
        let b' = b + shift in
        words.(b' / bpw) <- words.(b' / bpw) lor (1 lsl (b' mod bpw))
      end
    done;
    t.ends <- ends;
    t.words <- words;
    t.origin <- t.origin - shift;
    t.cursor <- t.cursor + shift;
    t.hi <- t.hi + shift

  let[@vm1.cold] grow_pool t =
    let pool = Array.make (2 * Array.length t.pool) 0 in
    Array.blit t.pool 0 pool 0 (2 * t.npool);
    t.pool <- pool

  let[@vm1.hot] prepare t ~origin =
    if not t.seeded then begin
      t.origin <- origin;
      t.seeded <- true;
      t.cursor <- 0;
      t.hi <- 0
    end

  let[@vm1.hot] push t ~prio ~value =
    if not t.seeded then begin
      t.origin <- prio - origin_slack;
      t.seeded <- true;
      t.cursor <- 0;
      t.hi <- 0
    end;
    if prio < t.origin then
      realloc t
        ~nbuckets:(t.hi + 1 + (t.origin - prio) + 64)
        ~shift:(t.origin - prio + 64);
    let b = prio - t.origin in
    if 2 * b >= Array.length t.ends then realloc t ~nbuckets:(b + 1) ~shift:0;
    let e = t.npool in
    if 2 * e >= Array.length t.pool then grow_pool t;
    let pool = t.pool in
    pool.(2 * e) <- value;
    t.npool <- e + 1;
    (* append at the bucket's tail: ties pop FIFO *)
    let w = b / bpw and bit = 1 lsl (b mod bpw) in
    let occ = t.words.(w) in
    if occ land bit = 0 then begin
      t.words.(w) <- occ lor bit;
      t.ends.(2 * b) <- e
    end
    else pool.((2 * t.ends.((2 * b) + 1)) + 1) <- e;
    t.ends.((2 * b) + 1) <- e;
    if b < t.cursor then t.cursor <- b;
    if b > t.hi then t.hi <- b;
    t.size <- t.size + 1;
    t.npush <- t.npush + 1

  (* First occupied bucket at word [w] or above, given [cur] = word [w]'s
     occupancy masked below the cursor. Top-level and tail-recursive so
     the pop scan neither allocates a closure nor boxes scan state in
     refs — pop runs on the A* hot path and must be allocation-free. *)
  let rec first_bucket words w cur =
    if cur <> 0 then (w * bpw) + bit_index (cur land (-cur))
    else first_bucket words (w + 1) words.(w + 1)

  let[@vm1.hot] pop t =
    if t.size = 0 then invalid_arg "Bqueue.pop: empty";
    let w0 = t.cursor / bpw in
    let b =
      first_bucket t.words w0
        (t.words.(w0) land ((-1) lsl (t.cursor mod bpw)))
    in
    t.cursor <- b;
    let e = t.ends.(2 * b) in
    let v = t.pool.(2 * e) in
    if e = t.ends.((2 * b) + 1) then begin
      (* drained: the cleared bit is what marks the bucket empty *)
      let w = b / bpw in
      t.words.(w) <- t.words.(w) land lnot (1 lsl (b mod bpw))
    end
    else t.ends.(2 * b) <- t.pool.((2 * e) + 1);
    t.size <- t.size - 1;
    t.last <- t.origin + b;
    v

  (* Every occupied bucket lies in [cursor, hi], so zeroing that span of
     the bitmap empties the queue; bucket ends and pool entries are dead
     once their bit is clear and need no reset. *)
  let[@vm1.hot] clear t =
    if t.size > 0 then
      for w = t.cursor / bpw to t.hi / bpw do
        t.words.(w) <- 0
      done;
    t.npool <- 0;
    t.size <- 0;
    t.cursor <- 0;
    t.hi <- 0;
    t.seeded <- false
end

(* --- search context with generation-stamped per-node state --- *)

(* Per-node A* state is one word,
   [(gen lsl rec_gen_shift) lor ((dist_max - dist) lsl rec_dir_bits) lor dir],
   so a relax reads and writes one word. The distance is stored
   inverted: within a generation a shorter distance is a larger word,
   and every older generation is smaller still, so "stale stamp or
   longer distance" is one compare against the candidate's word. [dir]
   is the move that reached the node, which names its parent. *)
let rec_dir_bits = 3
let rec_dir_mask = (1 lsl rec_dir_bits) - 1
let rec_dist_bits = 34
let dist_max = (1 lsl rec_dist_bits) - 1
let rec_gen_shift = rec_dir_bits + rec_dist_bits

(* Generations use bits [rec_gen_shift] to 61, so a record is never
   negative. Once half of that field is used, [route_subnet] zeroes the
   records and target marks and restarts the count; a subnet draws at
   most four generations, so none can outgrow the field. *)
let generation_reset = 1 lsl (61 - rec_gen_shift)

(* The moves: a node reached by move [d] has its parent one step back
   (east: at n - 1, west: n + 1, north: n - nx, south: n + nx, up:
   n - nx*ny, down: n + nx*ny). The edge between them belongs to the
   parent for the odd moves and to the node for the even ones. Seeds
   have no parent. *)
let dir_seed = 0
let dir_east = 1
let dir_west = 2
let dir_north = 3
let dir_south = 4
let dir_up = 5
let dir_down = 6

(* Search scratch, one per domain and reused by every route there, so a
   route does not fault grid-sized arrays in afresh. Stale contents need
   no clearing: a record or target mark counts only when its stamp equals
   a generation the current search drew, and [generation] lives here, so
   it only rises across routes, finished or raised, until a restart
   zeroes the stamps with it. [route] never awaits pool work, so a
   domain never runs two routes on it at once. *)
type scratch = {
  mutable node : int array;   (* node [n]'s record *)
  mutable tgen : int array;   (* target marks, one per M1 node [j * nx + i]:
                                 pin access nodes are all on M1 *)
  mutable tree : Stampset.t;  (* the current net's already-connected nodes *)
  bq : Bqueue.t;              (* A* open list: dial bucket queue *)
  mutable generation : int;
}

let scratch_slot =
  Exec.Dls.create (fun () ->
      { node = [||]; tgen = [||]; tree = Stampset.create 0;
        bq = Bqueue.create ~capacity:4096 (); generation = 0 })

let[@vm1.cold] restart_generations sc =
  Array.fill sc.node 0 (Array.length sc.node) 0;
  Array.fill sc.tgen 0 (Array.length sc.tgen) 0;
  sc.generation <- 0

module Testing = struct
  let generation_reset = generation_reset
  let generation () = (Exec.Dls.get scratch_slot).generation

  let set_generation gen =
    let sc = Exec.Dls.get scratch_slot in
    if gen < sc.generation then
      invalid_arg "Router.Testing.set_generation: generations only rise";
    sc.generation <- gen
end

type ctx = {
  g : Grid.t;
  cfg : config;
  mutable penalty : int;  (** congestion penalty, escalated per RRR pass *)
  sc : scratch;
  (* per-search state lives in the context, not in refs, so [run]
     allocates nothing: a ref is a one-word heap block per search *)
  mutable s_hmin : int;   (* min heuristic over the seed set *)
  mutable s_found : int;  (* target hit by the current search, or -1 *)
  mutable s_bound : int;  (* smallest f at which a target is queued *)
}

(* Open-list entries carry the node's coordinates, packed
   [(layer lsl 2c) lor (j lsl c) lor i] for [c = coord_bits], so a pop
   decodes with shifts and masks instead of [mod] and [/]. *)
let coord_bits = 21
let coord_mask = (1 lsl coord_bits) - 1
let pack l i j = (l lsl (2 * coord_bits)) lor (j lsl coord_bits) lor i

let make_ctx g cfg =
  if g.Grid.nx > coord_mask || g.Grid.ny > coord_mask then
    invalid_arg "Router: grid too large for packed open-list entries";
  (* grow the domain's scratch to cover [g] *)
  let sc = Exec.Dls.get scratch_slot in
  let n = Grid.node_count g and m1 = g.Grid.nx * g.Grid.ny in
  let grow_nodes = n > Array.length sc.node
  and grow_m1 = m1 > Array.length sc.tgen in
  if grow_nodes then begin
    sc.node <- Array.make n 0;
    sc.tree <- Stampset.create n
  end;
  if grow_m1 then sc.tgen <- Array.make m1 0;
  if grow_nodes || grow_m1 then Obs.Counter.incr c_scratch_allocs;
  {
    g;
    cfg;
    penalty = overflow_penalty;
    sc;
    s_hmin = max_int;
    s_found = -1;
    s_bound = max_int;
  }

let is_target ctx ~tg n =
  n < ctx.g.Grid.nx * ctx.g.Grid.ny && ctx.sc.tgen.(n) = tg

(* When dM1 is disabled, M1 wire edges that cross a placement-row
   boundary are forbidden, confining M1 to intra-row jogs. [j] is the
   edge node's track row (the edge spans tracks [j] and [j + 1]). *)
let m1_edge_in_row g j =
  let y0 = Grid.track_y g j and y1 = Grid.track_y g (j + 1) in
  let rh = g.Grid.placement.Place.Placement.tech.Pdk.Tech.row_height in
  y0 / rh = (y1 - 1) / rh && y1 mod rh <> 0

(* All search costs are scaled by [cost_scale], and every wire edge pays
   one extra scaled unit. The +1 is a deterministic tie-break: among
   paths of equal unscaled cost (e.g. trading two vias for four wire
   edges), the search now strictly prefers the one with fewer wire
   edges, i.e. the shorter routed wirelength — instead of leaving the
   choice to open-list pop order. 1/[cost_scale] of a DBU per edge is
   far below any real cost difference, so non-ties are unaffected. *)
let cost_scale = 8

(* [Stdlib.max] is polymorphic: every call is a generic comparison. The
   heuristic (once per relax) and the window clamp use these int-only
   forms, which compile to a compare and a branch. *)
let int_max (a : int) b = if a >= b then a else b
let int_min (a : int) b = if a <= b then a else b

(* The planar heuristic to the target box [ti0..ti1] x [tj0..tj1]:
   weighted A* inflates the admissible Manhattan bound by [hnum], which
   trades a bounded amount of path optimality for much smaller search
   trees. [h2] and [relax] are top-level and take everything as
   arguments, so inlining them into [run] leaves no closure to
   allocate. *)
let[@inline] h2 ~ti0 ~ti1 ~tj0 ~tj1 ~hnum i j =
  let dx = int_max 0 (int_max (ti0 - i) (i - ti1)) in
  let dy = int_max 0 (int_max (tj0 - j) (j - tj1)) in
  (dx + dy) * hnum / 100

let[@vm1.cold] [@inline never] dist_overflow () =
  failwith "Router: a path cost exceeds the A* record's distance field"

(* [n] is the neighbour at layer [l], track column [vi], track row
   [vj], heuristic [hv], reached by move [dir] from a node at distance
   [du] over an edge of cost [cost]; [top] is the current generation's
   record at distance 0 with no move. *)
let[@inline] relax ctx (node : int array) (tgen : int array) bq ~tg ~top ~du
    ~dir n l vi vj hv cost =
  let nd = du + cost in
  if nd > dist_max then dist_overflow ();
  let key = top - (nd lsl rec_dir_bits) in
  if node.(n) < key then begin
    let f = nd + hv in
    if f < ctx.s_bound then begin
      node.(n) <- key lor dir;
      if l = 1 && tgen.(n) = tg then ctx.s_bound <- f;
      Bqueue.push bq ~prio:f ~value:(pack l vi vj)
    end
  end

(* [run] reads the source pin's access range twice, for the heuristic
   floor and for the seeds, and counts each read as
   [Grid.pin_access_iter] does. *)
let c_pin_access_hits = Obs.counter "route.pin_access_hits"

(* One A* search inside the window [ilo..ihi] x [jlo..jhi]: multi-source
   (the net's current tree plus the source pin's access nodes) to the
   target pin's access nodes, which the caller stamped with
   [tgen = tg]. Returns the target reached, or -1.

   The cost model is folded into integer bases bound here: an edge
   costs its base plus [usage * pen], the same integer as
   [cost_scale * (base_dbu + usage * penalty)] (+ 1 on wires). An owned
   wire edge is open only to its owner; [use_dm1 = false] also closes
   M1 edges that leave their placement row. The grid's edge word is
   decoded with the layout bound here, not through [Grid]'s accessors,
   which under [-opaque] would be real calls.

   Sources are seeded through the same generation stamp that relaxation
   uses, so the open list is seeded without duplicate nodes even when
   the tree and the source pin's access set overlap.

   Target-bound pruning: once a target is queued at f = [s_bound], a
   relax with f >= [s_bound] is skipped and leaves the node's record as
   it was. Ties pop FIFO, so such an entry could only pop after that
   target, which ends the search; the records it would have written
   differ only at f-values that never pop; and a node already popped
   can only improve to an f below its popped one, hence below the
   bound, so no popped node's parent changes. Pops, parents and the
   found path are exactly those of the unpruned search. *)
let[@vm1.hot] run ctx ~net ~tg ~(src : Netlist.Design.pin_ref) ~ilo ~ihi
    ~jlo ~jhi ~ti0 ~ti1 ~tj0 ~tj1 =
  let g = ctx.g and sc = ctx.sc in
  let node = sc.node and tgen = sc.tgen and bq = sc.bq in
  let edges = g.Grid.edges in
  let usage_mask = Grid.usage_mask
  and via_shift = Grid.via_shift
  and owner_shift = Grid.owner_shift in
  (* a wire edge is open when its owner + 2 is [free + 2] or [net2] *)
  let free2 = Grid.free + 2 and net2 = net + 2 in
  let pen = cost_scale * ctx.penalty in
  let wire_base = (cost_scale * g.Grid.pitch) + 1 in
  let m1_base = (cost_scale * (g.Grid.pitch + m1_surcharge)) + 1 in
  let via_base = cost_scale * via_cost in
  let use_dm1 = ctx.cfg.use_dm1 in
  let nx = g.Grid.nx and ny = g.Grid.ny and nl = g.Grid.nl in
  let nxy = nx * ny in
  let hnum = cost_scale * g.Grid.pitch * astar_weight_pct in
  Bqueue.clear bq;
  sc.generation <- sc.generation + 1;
  let gbase = sc.generation lsl rec_gen_shift in
  let top = gbase lor (dist_max lsl rec_dir_bits) in
  (* Seeds: the tree's members, then the source pin's access nodes. *)
  let tree = Stampset.items sc.tree and ntree = Stampset.cardinal sc.tree in
  let pi = g.Grid.pin_base.(src.inst) + src.pin in
  let access = g.Grid.pin_access_nodes
  and a0 = g.Grid.pin_access_off.(pi) - ntree in
  let nseeds = g.Grid.pin_access_off.(pi + 1) - a0 in
  Obs.Counter.add c_pin_access_hits 2;
  (* Latch the dial origin at a provable floor on every f-value this
     search can push. Seeds carry f = h(n); along any path the inflated
     heuristic drops by at most [weight/100] of the real cost paid, so f
     never sinks below [hmin * 100 / weight]. Latching there (minus
     slack for integer rounding) means the seeding pushes — which arrive
     in arbitrary priority order — never hit the below-origin
     reallocation path. *)
  ctx.s_hmin <- max_int;
  for k = 0 to nseeds - 1 do
    let n = if k < ntree then tree.(k) else access.(a0 + k) in
    ctx.s_hmin <-
      int_min ctx.s_hmin
        (h2 ~ti0 ~ti1 ~tj0 ~tj1 ~hnum (n mod nx) (n / nx mod ny))
  done;
  if ctx.s_hmin < max_int then
    Bqueue.prepare bq ~origin:((ctx.s_hmin * 100 / astar_weight_pct) - 64);
  ctx.s_bound <- max_int;
  for k = 0 to nseeds - 1 do
    let n = if k < ntree then tree.(k) else access.(a0 + k) in
    if node.(n) < gbase then begin
      let i = n mod nx and j = n / nx mod ny in
      node.(n) <- top lor dir_seed;
      Bqueue.push bq ~prio:(h2 ~ti0 ~ti1 ~tj0 ~tj1 ~hnum i j)
        ~value:(pack ((n / nxy) + 1) i j)
    end
  done;
  ctx.s_found <- -1;
  while ctx.s_found < 0 && not (Bqueue.is_empty bq) do
    let v = Bqueue.pop bq in
    let d = Bqueue.last_prio bq in
    (* The entry carries [u]'s coordinates. Every neighbour differs
       from [u] by exactly one of them, so its coords — and the window
       test on them — come for free. [u] itself may lie outside the
       window (tree seeds do), so the test checks both neighbour
       coordinates. *)
    let i = v land coord_mask in
    let j = (v lsr coord_bits) land coord_mask in
    let l = v lsr (2 * coord_bits) in
    let u = ((((l - 1) * ny) + j) * nx) + i in
    (* Every queued node's record is of this generation, so it holds
       [u]'s distance. The classic stale-entry test [d - h u <= du],
       with [h u] moved to the right: [h2] is fixed within a search, so
       [du + hu] is exactly the f of [u]'s latest push. Both via
       neighbours share [u]'s (i, j), hence [hu]. *)
    let du = dist_max - ((node.(u) lsr rec_dir_bits) land dist_max) in
    let hu = h2 ~ti0 ~ti1 ~tj0 ~tj1 ~hnum i j in
    if d <= du + hu then begin
      if l = 1 && tgen.(u) = tg then ctx.s_found <- u
      else begin
        (* [u]'s own edge word: its forward wire edge and its via up *)
        let wu = edges.(u) in
        if l land 1 = 1 then begin
          (* vertical layer: wire edges along j *)
          let base = if l = 1 then m1_base else wire_base in
          let gated = l = 1 && not use_dm1 in
          if j < ny - 1 && i >= ilo && i <= ihi && j + 1 >= jlo && j + 1 <= jhi
          then begin
            let o = wu lsr owner_shift in
            if (o = free2 || o = net2)
               && not (gated && not (m1_edge_in_row g j))
            then
              relax ctx node tgen bq ~tg ~top ~du ~dir:dir_north (u + nx) l i
                (j + 1)
                (h2 ~ti0 ~ti1 ~tj0 ~tj1 ~hnum i (j + 1))
                (base + ((wu land usage_mask) * pen))
          end;
          if j > 0 && i >= ilo && i <= ihi && j - 1 >= jlo && j - 1 <= jhi
          then begin
            let e = u - nx in
            let we = edges.(e) in
            let o = we lsr owner_shift in
            if (o = free2 || o = net2)
               && not (gated && not (m1_edge_in_row g (j - 1)))
            then
              relax ctx node tgen bq ~tg ~top ~du ~dir:dir_south e l i (j - 1)
                (h2 ~ti0 ~ti1 ~tj0 ~tj1 ~hnum i (j - 1))
                (base + ((we land usage_mask) * pen))
          end
        end
        else begin
          (* horizontal layer: wire edges along i *)
          if i < nx - 1 && i + 1 >= ilo && i + 1 <= ihi && j >= jlo && j <= jhi
          then begin
            let o = wu lsr owner_shift in
            if o = free2 || o = net2 then
              relax ctx node tgen bq ~tg ~top ~du ~dir:dir_east (u + 1) l
                (i + 1) j
                (h2 ~ti0 ~ti1 ~tj0 ~tj1 ~hnum (i + 1) j)
                (wire_base + ((wu land usage_mask) * pen))
          end;
          if i > 0 && i - 1 >= ilo && i - 1 <= ihi && j >= jlo && j <= jhi
          then begin
            let e = u - 1 in
            let we = edges.(e) in
            let o = we lsr owner_shift in
            if o = free2 || o = net2 then
              relax ctx node tgen bq ~tg ~top ~du ~dir:dir_west e l (i - 1) j
                (h2 ~ti0 ~ti1 ~tj0 ~tj1 ~hnum (i - 1) j)
                (wire_base + ((we land usage_mask) * pen))
          end
        end;
        if l < nl then
          relax ctx node tgen bq ~tg ~top ~du ~dir:dir_up (u + nxy) (l + 1) i j
            hu
            (via_base + (((wu lsr via_shift) land usage_mask) * pen));
        if l > 1 then
          relax ctx node tgen bq ~tg ~top ~du ~dir:dir_down (u - nxy) (l - 1) i
            j hu
            (via_base
            + (((edges.(u - nxy) lsr via_shift) land usage_mask) * pen))
      end
    end
  done;
  ctx.s_found

(* A* over escalating windows around the subnet bounding box
   [imin..imax] x [jmin..jmax]: the configured margin, four times it,
   then the whole grid. [clamp] (ilo, ihi, jlo, jhi) intersects every
   window with a fixed rectangle; the tiled initial pass uses it to
   confine each tile's searches — reads and writes included — to that
   tile. Returns the target reached, or -1. *)
let search ?clamp ctx ~net ~tg ~src ~imin ~imax ~jmin ~jmax ~ti0 ~ti1 ~tj0
    ~tj1 =
  let g = ctx.g in
  let ci0, ci1, cj0, cj1 =
    match clamp with None -> (0, max_int, 0, max_int) | Some c -> c
  in
  let m = ctx.cfg.search_margin in
  let found = ref (-1) and attempt = ref 0 in
  while !found < 0 && !attempt < 3 do
    let margin =
      if !attempt = 0 then m
      else if !attempt = 1 then 4 * m
      else int_max g.Grid.nx g.Grid.ny
    in
    incr attempt;
    found :=
      run ctx ~net ~tg ~src
        ~ilo:(int_max (int_max 0 (imin - margin)) ci0)
        ~ihi:(int_min (int_min (g.Grid.nx - 1) (imax + margin)) ci1)
        ~jlo:(int_max (int_max 0 (jmin - margin)) cj0)
        ~jhi:(int_min (int_min (g.Grid.ny - 1) (jmax + margin)) cj1)
        ~ti0 ~ti1 ~tj0 ~tj1
  done;
  !found

(* The node one move [d] back from [n] (see [dir_east] and the rest). *)
let parent_of ~nx ~nxy n d =
  if d = dir_east then n - 1
  else if d = dir_west then n + 1
  else if d = dir_north then n - nx
  else if d = dir_south then n + nx
  else if d = dir_up then n - nxy
  else n + nxy

(* Reconstruct the packed edge array from the moves recorded back from
   [t] to a seed: one counting walk, then one filling walk — no list,
   no rev. *)
let reconstruct ctx t =
  let g = ctx.g and node = ctx.sc.node in
  let nx = g.Grid.nx in
  let nxy = nx * g.Grid.ny in
  let len = ref 0 in
  let u = ref t in
  while node.(!u) land rec_dir_mask <> dir_seed do
    incr len;
    u := parent_of ~nx ~nxy !u (node.(!u) land rec_dir_mask)
  done;
  let path = Array.make !len 0 in
  let u = ref t in
  for k = !len - 1 downto 0 do
    let d = node.(!u) land rec_dir_mask in
    let p = parent_of ~nx ~nxy !u d in
    let at = if d land 1 = 1 then p else !u in
    path.(k) <- (if d >= dir_up then via_code at else wire_code at);
    u := p
  done;
  path

let commit g path =
  Array.iter
    (fun c ->
      let n = c lsr 1 in
      if c land 1 = 1 then Grid.commit_via g n else Grid.commit_wire g n)
    path

let uncommit g path =
  Array.iter
    (fun c ->
      let n = c lsr 1 in
      if c land 1 = 1 then Grid.uncommit_via g n else Grid.uncommit_wire g n)
    path

(* [nr]'s committed edge occurrences on overflowed edges (usage > 1),
   counted over its stored paths: positive exactly when the net crosses
   congestion. *)
let net_overflow g nr =
  Array.fold_left
    (fun acc sn ->
      Array.fold_left
        (fun a c ->
          let n = c lsr 1 in
          let u =
            if c land 1 = 1 then Grid.via_usage g n else Grid.wire_usage g n
          in
          if u > 1 then a + 1 else a)
        acc sn.path)
    0 nr.subnets

(* Grow the net's tree with the nodes the committed path touches. *)
let add_path_to_tree ctx path =
  let g = ctx.g in
  Array.iter
    (fun c ->
      let n = c lsr 1 in
      Stampset.add ctx.sc.tree n;
      Stampset.add ctx.sc.tree
        (if c land 1 = 1 then Grid.via_dest g n else Grid.wire_dest g n))
    path

(* Manhattan-MST decomposition of a net's pins (Prim). *)
let decompose (p : Place.Placement.t) (net : Netlist.Design.net) =
  let pins = net.pins in
  let k = Array.length pins in
  if k < 2 then [||]
  else begin
    let pos = Array.map (Place.Placement.pin_pos p) pins in
    let in_tree = Array.make k false in
    let best_d = Array.make k max_int in
    let best_src = Array.make k 0 in
    in_tree.(0) <- true;
    for v = 1 to k - 1 do
      best_d.(v) <- Geom.Point.manhattan pos.(0) pos.(v)
    done;
    let edges = ref [] in
    for _ = 1 to k - 1 do
      let u = ref (-1) in
      for v = 0 to k - 1 do
        if (not in_tree.(v)) && (!u < 0 || best_d.(v) < best_d.(!u)) then u := v
      done;
      let v = !u in
      in_tree.(v) <- true;
      edges := (best_src.(v), v) :: !edges;
      for w = 0 to k - 1 do
        if not in_tree.(w) then begin
          let d = Geom.Point.manhattan pos.(v) pos.(w) in
          if d < best_d.(w) then begin
            best_d.(w) <- d;
            best_src.(w) <- v
          end
        end
      done
    done;
    Array.of_list
      (List.rev_map
         (fun (a, b) ->
           { src = pins.(a); dst = pins.(b); path = [||]; routed = false })
         !edges)
  end

(* Add the pin-access nodes [access.(k0..k1)] to the net's tree. *)
let add_access_to_tree sc access k0 k1 =
  Obs.Counter.incr c_pin_access_hits;
  for k = k0 to k1 do
    Stampset.add sc.tree access.(k)
  done

(* Route one MST edge against the net's growing tree (held in
   [ctx.tree]). Target stamping, the direct-connection test, and open
   list seeding all run on generation stamps — no list membership
   scans. The pin-access ranges and the tree are read by index, as
   [run] reads them, so no closure or ref is allocated; each range read
   counts once in [route.pin_access_hits], as [Grid.pin_access_iter]
   would. *)
let route_subnet ?clamp ctx ~net subnet =
  let g = ctx.g and sc = ctx.sc in
  let nx = g.Grid.nx and ny = g.Grid.ny in
  let access = g.Grid.pin_access_nodes and off = g.Grid.pin_access_off in
  let dpi = g.Grid.pin_base.(subnet.dst.inst) + subnet.dst.pin in
  let spi = g.Grid.pin_base.(subnet.src.inst) + subnet.src.pin in
  let d0 = off.(dpi) and d1 = off.(dpi + 1) - 1 in
  let s0 = off.(spi) and s1 = off.(spi + 1) - 1 in
  (* stamp the target pin's access nodes with a fresh generation and
     collect the target bounding box *)
  if sc.generation >= generation_reset then restart_generations sc;
  sc.generation <- sc.generation + 1;
  let tg = sc.generation in
  let ti_min = ref max_int and ti_max = ref min_int in
  let tj_min = ref max_int and tj_max = ref min_int in
  Obs.Counter.incr c_pin_access_hits;
  for k = d0 to d1 do
    let n = access.(k) in
    let i = n mod nx and j = n / nx mod ny in
    if i < !ti_min then ti_min := i;
    if i > !ti_max then ti_max := i;
    if j < !tj_min then tj_min := j;
    if j > !tj_max then tj_max := j;
    sc.tgen.(n) <- tg
  done;
  (* trivial case: a source IS a target *)
  let tree = Stampset.items sc.tree and ntree = Stampset.cardinal sc.tree in
  let direct = ref false and k = ref 0 in
  while (not !direct) && !k < ntree do
    if is_target ctx ~tg tree.(!k) then direct := true;
    incr k
  done;
  if not !direct then begin
    Obs.Counter.incr c_pin_access_hits;
    let k = ref s0 in
    while (not !direct) && !k <= s1 do
      if is_target ctx ~tg access.(!k) then direct := true;
      incr k
    done
  end;
  if !direct then begin
    subnet.path <- [||];
    subnet.routed <- true;
    add_access_to_tree sc access d0 d1;
    true
  end
  else begin
    (* window bounding box over sources and targets *)
    let imin = ref !ti_min and imax = ref !ti_max in
    let jmin = ref !tj_min and jmax = ref !tj_max in
    Obs.Counter.incr c_pin_access_hits;
    for k = 0 to ntree + s1 - s0 do
      let n = if k < ntree then tree.(k) else access.(s0 + k - ntree) in
      let i = n mod nx and j = n / nx mod ny in
      if i < !imin then imin := i;
      if i > !imax then imax := i;
      if j < !jmin then jmin := j;
      if j > !jmax then jmax := j
    done;
    let t =
      search ?clamp ctx ~net ~tg ~src:subnet.src ~imin:!imin ~imax:!imax
        ~jmin:!jmin ~jmax:!jmax ~ti0:!ti_min ~ti1:!ti_max ~tj0:!tj_min
        ~tj1:!tj_max
    in
    if t >= 0 then begin
      let path = reconstruct ctx t in
      commit g path;
      subnet.path <- path;
      subnet.routed <- true;
      add_access_to_tree sc access d0 d1;
      add_path_to_tree ctx path;
      true
    end
    else begin
      subnet.path <- [||];
      subnet.routed <- false;
      false
    end
  end

let route ?(config = default_config) (p : Place.Placement.t) =
  Obs.with_span "route" (fun () ->
  let mw0 = if Obs.enabled () then Gc.minor_words () else 0. in
  let g = Grid.of_placement ~layers:config.layers p in
  let design = p.Place.Placement.design in
  let signal = Netlist.Design.signal_nets design in
  (* shorter nets first: they have fewer detour options. Each net's HPWL
     is computed once and the (hpwl, net) pairs sorted stably, so nets
     of equal length stay in [signal_nets] order. *)
  let order =
    List.stable_sort
      (fun (a, _) (b, _) -> Int.compare a b)
      (List.map (fun nid -> (Place.Hpwl.net p nid, nid)) signal)
  in
  let routes =
    Array.of_list
      (List.map
         (fun (_, nid) ->
           { net_id = nid; subnets = decompose p design.nets.(nid) })
         order)
  in
  Obs.add_attr "nets" (`Int (Array.length routes));
  let total_subnets =
    Array.fold_left (fun acc nr -> acc + Array.length nr.subnets) 0 routes
  in
  Obs.Counter.add c_subnets total_subnets;
  (* Sequential semantics: attempt every subnet even after a failure (the
     rip-up passes may still fix the rest of the tree). *)
  let route_net_full ctx (nr : net_route) =
    Stampset.clear ctx.sc.tree;
    Array.iter
      (fun sn ->
        Obs.Counter.incr c_subnet_attempts;
        ignore (route_subnet ctx ~net:nr.net_id sn))
      nr.subnets
  in
  (* Tile-confined attempt for the initial pass: on the first subnet that
     cannot be routed inside the tile, roll the whole net back and report
     it deferred, so the second phase retries it with full window
     escalation against the grid state the tiles left. *)
  let route_net_clamped ~clamp ctx (nr : net_route) =
    Stampset.clear ctx.sc.tree;
    let ok = ref true in
    Array.iter
      (fun sn ->
        if !ok then begin
          Obs.Counter.incr c_subnet_attempts;
          if not (route_subnet ~clamp ctx ~net:nr.net_id sn) then ok := false
        end)
      nr.subnets;
    if not !ok then
      Array.iter
        (fun sn ->
          if sn.routed then begin
            uncommit g sn.path;
            sn.path <- [||];
            sn.routed <- false
          end)
        nr.subnets;
    !ok
  in
  (* --- tiled initial pass --------------------------------------------
     The routing grid is cut into fixed [shard_tracks]-sized tiles. A net
     is tile-local when every access node of every pin, padded by the
     first search margin, lands in one tile; tile-local nets route first,
     tile by tile, with searches clamped to their tile. Everything else —
     nets spanning tiles, plus any net that failed inside its tile — is
     routed afterwards, in the original short-nets-first order, with the
     ordinary unclamped escalation. The tiling decides which routes are
     found, so it stays even though every net routes on the calling
     domain. *)
  let t = max 8 config.shard_tracks in
  let tiles_x = (g.Grid.nx + t - 1) / t in
  let tiles_y = (g.Grid.ny + t - 1) / t in
  let m = config.search_margin in
  let tile_of (nr : net_route) =
    let imin = ref max_int and imax = ref min_int in
    let jmin = ref max_int and jmax = ref min_int in
    Array.iter
      (fun pr ->
        Grid.pin_access_iter g pr (fun n ->
            let i = Grid.i_of_node g n and j = Grid.j_of_node g n in
            if i < !imin then imin := i;
            if i > !imax then imax := i;
            if j < !jmin then jmin := j;
            if j > !jmax then jmax := j))
      design.nets.(nr.net_id).pins;
    if !imin > !imax then None
    else begin
      let ilo = max 0 (!imin - m) and ihi = min (g.Grid.nx - 1) (!imax + m) in
      let jlo = max 0 (!jmin - m) and jhi = min (g.Grid.ny - 1) (!jmax + m) in
      if ilo / t = ihi / t && jlo / t = jhi / t then
        Some (((jlo / t) * tiles_x) + (ilo / t))
      else None
    end
  in
  let buckets = Array.make (tiles_x * tiles_y) [] in
  let seq_nets = ref [] in
  Array.iteri
    (fun k nr ->
      if Array.length nr.subnets > 0 then
        match tile_of nr with
        | Some ti -> buckets.(ti) <- k :: buckets.(ti)
        | None -> seq_nets := k :: !seq_nets)
    routes;
  let tile_jobs =
    let acc = ref [] in
    for ti = Array.length buckets - 1 downto 0 do
      match buckets.(ti) with
      | [] -> ()
      | l -> acc := (ti, Array.of_list (List.rev l)) :: !acc
    done;
    Array.of_list !acc
  in
  let n_local = Array.fold_left (fun a (_, ns) -> a + Array.length ns) 0 tile_jobs in
  let ctx = make_ctx g config in
  let pushes0 = Bqueue.pushes ctx.sc.bq in
  Obs.with_span "route.initial"
    ~attrs:[ ("tiles", `Int (Array.length tile_jobs)); ("local_nets", `Int n_local) ]
    (fun () ->
    let deferred = ref [] in
    Array.iter
      (fun (ti, nets) ->
        let tx = ti mod tiles_x and ty = ti / tiles_x in
        let clamp =
          ( tx * t,
            min (g.Grid.nx - 1) (((tx + 1) * t) - 1),
            ty * t,
            min (g.Grid.ny - 1) (((ty + 1) * t) - 1) )
        in
        Array.iter
          (fun k ->
            if not (route_net_clamped ~clamp ctx routes.(k)) then
              deferred := k :: !deferred)
          nets)
      tile_jobs;
    let seq = List.sort Int.compare (List.rev_append !seq_nets !deferred) in
    Obs.Counter.add c_shard_nets (n_local - List.length !deferred);
    Obs.Counter.add c_deferred_nets (List.length seq);
    Obs.add_attr "sequential_nets" (`Int (List.length seq));
    List.iter (fun k -> route_net_full ctx routes.(k)) seq);
  (* Rip-up and reroute nets crossing overflowed edges, with the
     congestion penalty escalating each pass. A net's congestion test
     scans its own stored paths, at the moment the loop reaches it, so
     nets ripped earlier in the pass are seen as they now stand. A pass
     with no overflowed edge ([Grid.overflow_count], O(1)) scans
     nothing. *)
  for pass = 1 to config.ripup_passes do
    Obs.with_span "route.ripup" ~attrs:[ ("pass", `Int pass) ] (fun () ->
    ctx.penalty <- overflow_penalty * (pass + 1);
    let candidates = ref 0 in
    if Grid.overflow_count g > 0 then
      Array.iter
        (fun nr -> if net_overflow g nr > 0 then incr candidates)
        routes;
    Obs.Counter.add c_ripup_candidates !candidates;
    Obs.add_attr "candidates" (`Int !candidates);
    let ripped = ref 0 in
    if !candidates > 0 then
      Array.iter
        (fun nr ->
          if net_overflow g nr > 0 then begin
            incr ripped;
            Array.iter
              (fun sn ->
                if sn.routed then begin
                  uncommit g sn.path;
                  sn.path <- [||];
                  sn.routed <- false
                end)
              nr.subnets;
            route_net_full ctx nr
          end)
        routes;
    Obs.Counter.add c_ripup_nets !ripped;
    Obs.add_attr "ripped_nets" (`Int !ripped))
  done;
  let failed_final =
    Array.fold_left
      (fun acc nr ->
        acc
        + Array.fold_left
            (fun a sn -> if sn.routed then a else a + 1)
            0 nr.subnets)
      0 routes
  in
  Obs.Counter.add c_failed_subnets failed_final;
  Obs.Counter.add c_bq_pushes (Bqueue.pushes ctx.sc.bq - pushes0);
  let overflow = Grid.overflow_count g in
  Obs.Gauge.set g_overflow (float_of_int overflow);
  if Obs.enabled () && total_subnets > 0 then
    Obs.Gauge.set g_minor_words
      ((Gc.minor_words () -. mw0) /. float_of_int total_subnets);
  Obs.add_attr "overflow_edges" (`Int overflow);
  Obs.add_attr "failed_subnets" (`Int failed_final);
  (* Attribution payload for [vm1trace attribute]: a per-tile map of
     overflowed edges (the congestion heatmap, on the same fixed tiling
     as the initial pass) plus the ids of congested and failed nets —
     the trace-side join keys for per-net QoR. Only computed while
     instrumentation is on; one O(nodes) sweep, far below routing cost. *)
  if Obs.enabled () then begin
    let heat = Array.make (tiles_x * tiles_y) 0 in
    let bump_tile n =
      let ti = min (tiles_x - 1) (Grid.i_of_node g n / t)
      and tj = min (tiles_y - 1) (Grid.j_of_node g n / t) in
      let k = (tj * tiles_x) + ti in
      heat.(k) <- heat.(k) + 1
    in
    for n = 0 to Grid.node_count g - 1 do
      if Grid.wire_usage g n > 1 then bump_tile n;
      if Grid.via_usage g n > 1 then bump_tile n
    done;
    let ints_to_str a =
      let b = Buffer.create (4 * Array.length a) in
      Array.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (string_of_int v))
        a;
      Buffer.contents b
    in
    let pairs_to_str l =
      String.concat " "
        (List.map (fun (nid, c) -> Printf.sprintf "%d:%d" nid c) l)
    in
    let over_nets = ref [] and failed_nets = ref [] in
    Array.iter
      (fun nr ->
        let c = net_overflow g nr in
        if c > 0 then over_nets := (nr.net_id, c) :: !over_nets;
        let f =
          Array.fold_left
            (fun a sn -> if sn.routed then a else a + 1)
            0 nr.subnets
        in
        if f > 0 then failed_nets := (nr.net_id, f) :: !failed_nets)
      routes;
    let by_net = List.sort (fun (a, _) (b, _) -> Int.compare a b) in
    Obs.add_attr "heat_tiles_x" (`Int tiles_x);
    Obs.add_attr "heat_tiles_y" (`Int tiles_y);
    Obs.add_attr "heat_tile_tracks" (`Int t);
    Obs.add_attr "pitch_dbu" (`Int g.Grid.pitch);
    Obs.add_attr "heat_overflow" (`Str (ints_to_str heat));
    Obs.add_attr "overflow_nets" (`Str (pairs_to_str (by_net !over_nets)));
    Obs.add_attr "failed_nets" (`Str (pairs_to_str (by_net !failed_nets)))
  end;
  { grid = g; routes; config; failed_subnets = failed_final })
