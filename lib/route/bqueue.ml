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
