type t = {
  tile_tracks : int;
  pitch : int;
  tx : int;
  ty : int;
  ratio : float array;
}

let of_result ?(tile_tracks = 8) (r : Router.result) =
  let g = r.Router.grid in
  let tx = (g.Grid.nx + tile_tracks - 1) / tile_tracks in
  let ty = (g.Grid.ny + tile_tracks - 1) / tile_tracks in
  let used = Array.make (tx * ty) 0 in
  let cap = Array.make (tx * ty) 0 in
  let size = Grid.node_count g in
  for n = 0 to size - 1 do
    if Grid.has_wire_edge g n then begin
      let idx =
        ((Grid.j_of_node g n / tile_tracks) * tx)
        + (Grid.i_of_node g n / tile_tracks)
      in
      if Grid.wire_owner g n <> Grid.blocked then begin
        cap.(idx) <- cap.(idx) + 1;
        used.(idx) <- used.(idx) + Grid.wire_usage g n
      end
    end
  done;
  let ratio =
    Array.init (tx * ty) (fun i ->
        if cap.(i) = 0 then 0.0 else float_of_int used.(i) /. float_of_int cap.(i))
  in
  { tile_tracks; pitch = g.Grid.pitch; tx; ty; ratio }

let at t ~x ~y =
  let clamp lo hi v = max lo (min hi v) in
  let i = clamp 0 (t.tx - 1) (x / (t.pitch * t.tile_tracks)) in
  let j = clamp 0 (t.ty - 1) (y / (t.pitch * t.tile_tracks)) in
  t.ratio.((j * t.tx) + i)

let overflow_ratio t =
  let over = Array.fold_left (fun acc r -> if r > 1.0 then acc + 1 else acc) 0 t.ratio in
  float_of_int over /. float_of_int (max 1 (Array.length t.ratio))

let pp ppf t =
  let maxr = Array.fold_left max 0.0 t.ratio in
  Format.fprintf ppf "congestion{%dx%d tiles, max %.2f, overflow %.1f%%}" t.tx
    t.ty maxr (100.0 *. overflow_ratio t)
