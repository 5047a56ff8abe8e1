(* Ordered single-row DP over feasible spans.

   Cell j of a row (cells in left-to-right order, widths w_0..w_{k-1})
   can only sit at sites [lo_j, hi_j]: lo_j is the summed width of the
   cells to its left, hi_j is nsites minus the summed width of the cells
   from j rightwards. Every span has the same length L = slack + 1, and
   cell j at span index t (site lo_j + t) may follow cell j-1 at any
   span index <= t. So the DP keeps one running prefix minimum over span
   indices, rewritten in place each round, and a k x L choice matrix.

   Moving pin p of the cell to absolute x costs, summed over p's nets,
   the x-extent growth of the net's bounding box over its OTHER pins —
   one (offset, lo, hi) term per pin. A row costs O(k * L * pins). *)

let imax (a : int) b = if a >= b then a else b

(* The cost terms of the cell in hand, reused for every cell of one
   call: each instance has at most one term per pin. *)
type terms = {
  t_off : int array;  (* pin x offset from the cell origin *)
  t_lo : int array;   (* the net's x-interval over its other pins *)
  t_hi : int array;
  mutable nterms : int;
}

let create_terms (p : Placement.t) =
  let most =
    Array.fold_left
      (fun m (inst : Netlist.Design.instance) ->
        imax m (Array.length inst.pin_nets))
      0 p.design.Netlist.Design.instances
  in
  {
    t_off = Array.make most 0;
    t_lo = Array.make most 0;
    t_hi = Array.make most 0;
    nterms = 0;
  }

(* The DP state of the row in hand, over span indices [0, len): the
   running prefix minimum [pm] with its first argmin [pa], and [choice],
   the predecessor span index of cell [j] at index [t] in
   [j * len + t]. The buffers are reused by every row of one call and
   only grow, so the DP does not churn the major heap. *)
type dp = {
  mutable len : int;
  mutable pm : int array;
  mutable pa : int array;
  mutable choice : int array;
}

let create_dp () = { len = 0; pm = [||]; pa = [||]; choice = [||] }

let reset_dp dp ~k ~len =
  dp.len <- len;
  if Array.length dp.pm < len then begin
    dp.pm <- Array.make len 0;
    dp.pa <- Array.make len 0
  end;
  if Array.length dp.choice < k * len then dp.choice <- Array.make (k * len) 0

let c_dp_states = Obs.counter "place.dp_states"

(* the cost terms of instance [i]: one per pin on a non-clock net with
   at least two pins, whose other pins span a non-empty x-interval *)
let collect_terms ctx (p : Placement.t) i =
  let design = p.design in
  let inst = design.Netlist.Design.instances.(i) in
  ctx.nterms <- 0;
  List.iteri
    (fun k (_ : Pdk.Stdcell.pin) ->
      let nid = inst.pin_nets.(k) in
      if nid >= 0 && not design.nets.(nid).is_clock then begin
        let net = design.nets.(nid) in
        if Array.length net.pins >= 2 then begin
          let lo = ref max_int and hi = ref min_int in
          Array.iter
            (fun (pr : Netlist.Design.pin_ref) ->
              if not (pr.inst = i && pr.pin = k) then begin
                let x = (Placement.pin_pos p pr).Geom.Point.x in
                if x < !lo then lo := x;
                if x > !hi then hi := x
              end)
            net.pins;
          if !lo <= !hi then begin
            let n = ctx.nterms in
            ctx.t_off.(n) <-
              (Placement.pin_pos p { Netlist.Design.inst = i; pin = k }).x
              - p.xs.(i);
            ctx.t_lo.(n) <- !lo;
            ctx.t_hi.(n) <- !hi;
            ctx.nterms <- n + 1
          end
        end
      end)
    inst.master.Pdk.Stdcell.pins

(* [terms_cost ctx x0 0 0] is the cost of the collected terms with the
   cell's origin at absolute x [x0] *)
let[@vm1.hot] rec terms_cost ctx x0 t acc =
  if t = ctx.nterms then acc
  else
    let px = x0 + ctx.t_off.(t) in
    terms_cost ctx x0 (t + 1)
      (acc + imax 0 (ctx.t_lo.(t) - px) + imax 0 (px - ctx.t_hi.(t)))

(* One DP round for cell [j] (leftmost feasible site [lo]) from span
   index [t] on: the cell's cost there plus the best placement of cells
   0..j-1 ending at or before [t] (round 0 has no predecessor), folded
   into the prefix minimum [best] / first argmin [arg] rewritten in
   place. *)
let[@vm1.hot] rec dp_round ctx dp ~sw ~j ~lo t best arg =
  if t < dp.len then begin
    let c = terms_cost ctx ((lo + t) * sw) 0 0 in
    let v =
      if j = 0 then c
      else begin
        dp.choice.((j * dp.len) + t) <- dp.pa.(t);
        dp.pm.(t) + c
      end
    in
    if v < best then begin
      dp.pm.(t) <- v;
      dp.pa.(t) <- t;
      dp_round ctx dp ~sw ~j ~lo (t + 1) v t
    end
    else begin
      dp.pm.(t) <- best;
      dp.pa.(t) <- arg;
      dp_round ctx dp ~sw ~j ~lo (t + 1) best arg
    end
  end

(* summed HPWL of the nets touching [cells], in ascending net-id order *)
let cells_hpwl (p : Placement.t) cells =
  Array.to_list cells
  |> List.concat_map (fun i ->
         Array.to_list p.design.Netlist.Design.instances.(i).pin_nets)
  |> List.filter (fun nid -> nid >= 0)
  |> List.sort_uniq Int.compare
  |> List.fold_left (fun acc nid -> acc + Hpwl.net p nid) 0

(* [cells] is the row's instances in left-to-right order *)
let optimize_cells ctx dp (p : Placement.t) ~row cells =
  let k = Array.length cells in
  let nsites = p.sites_per_row in
  let widths =
    Array.map
      (fun i ->
        p.design.Netlist.Design.instances.(i).master.Pdk.Stdcell.width_sites)
      cells
  in
  let len = nsites - Array.fold_left ( + ) 0 widths + 1 in
  (* an empty or over-full row has no feasible span and moves nothing *)
  if k = 0 || len <= 0 then 0
  else begin
    let before = cells_hpwl p cells in
    reset_dp dp ~k ~len;
    let sw = p.tech.Pdk.Tech.site_width in
    let los = Array.make k 0 in
    for j = 0 to k - 1 do
      if j > 0 then los.(j) <- los.(j - 1) + widths.(j - 1);
      collect_terms ctx p cells.(j);
      dp_round ctx dp ~sw ~j ~lo:los.(j) 0 max_int (-1)
    done;
    Obs.Counter.add c_dp_states (k * len);
    (* the last cell's best index, then walk the choices back *)
    let t = ref dp.pa.(len - 1) in
    for j = k - 1 downto 0 do
      let i = cells.(j) in
      Placement.move p i ~site:(los.(j) + !t) ~row ~orient:p.orients.(i);
      if j > 0 then t := dp.choice.((j * len) + !t)
    done;
    before - cells_hpwl p cells
  end

(* the instances of every row, in ascending id order *)
let rows_of (p : Placement.t) =
  let rows = Array.make p.num_rows [] in
  for i = Placement.num_instances p - 1 downto 0 do
    let r = Placement.row_of_inst p i in
    if r >= 0 && r < p.num_rows then rows.(r) <- i :: rows.(r)
  done;
  Array.map Array.of_list rows

(* stably sorted by x: the left-to-right order the DP preserves *)
let by_x (p : Placement.t) cells =
  Array.stable_sort (fun a b -> Int.compare p.xs.(a) p.xs.(b)) cells;
  cells

let optimize_row (p : Placement.t) ~row =
  optimize_cells (create_terms p) (create_dp ()) p ~row
    (by_x p (rows_of p).(row))

let optimize ?(passes = 2) (p : Placement.t) =
  Obs.with_span "place.row_opt"
    ~attrs:[ ("rows", `Int p.num_rows) ]
    (fun () ->
      let ctx = create_terms p and dp = create_dp () in
      let total = ref 0 in
      for _ = 1 to passes do
        (* the DP keeps every cell in its row, so the rows bucketed at the
           start of a pass are those each row would see when reached *)
        let rows = rows_of p in
        Array.iteri
          (fun row cells ->
            total := !total + optimize_cells ctx dp p ~row (by_x p cells))
          rows
      done;
      !total)
