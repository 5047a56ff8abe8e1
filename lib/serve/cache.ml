type outcome = Hit | Miss

(* One store per artifact type: a Hashtbl used strictly as a key-value
   map (find/replace only, never iterated — hash order can leak into
   nothing) plus plain hit/miss tallies. Single-domain by contract; see
   the .mli. *)
type 'a store = {
  table : (string, 'a) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

type t = {
  libraries : Pdk.Libgen.t store;
  netlists : Netlist.Design.t store;
  placements : Report.Flow.master store;
  externals : Report.Flow.master store;
}

exception Rejected of string

let c_hits = Obs.counter "serve.cache_hits"
let c_misses = Obs.counter "serve.cache_misses"

let new_store () = { table = Hashtbl.create 16; hits = 0; misses = 0 }

let create () =
  {
    libraries = new_store ();
    netlists = new_store ();
    placements = new_store ();
    externals = new_store ();
  }

let lookup store key make =
  match Hashtbl.find_opt store.table key with
  | Some v ->
    store.hits <- store.hits + 1;
    Obs.Counter.incr c_hits;
    (v, Hit)
  | None ->
    store.misses <- store.misses + 1;
    Obs.Counter.incr c_misses;
    let v = make () in
    Hashtbl.replace store.table key v;
    (v, Miss)

let library t arch =
  lookup t.libraries
    (Pdk.Cell_arch.to_string arch)
    (fun () -> Pdk.Libgen.generate (Pdk.Tech.default arch))

let netlist_key ~name ~arch ~scale =
  Printf.sprintf "%s/%s/%d"
    (Netlist.Designs.to_string name)
    (Pdk.Cell_arch.to_string arch)
    scale

let netlist t ~lib ~name ~arch ~scale =
  lookup t.netlists (netlist_key ~name ~arch ~scale) (fun () ->
      Netlist.Designs.make ~lib ~scale name arch)

(* The baseline's route is dropped: a master outlives every job on its
   placement, and a grid per cached placement would dominate the
   daemon's memory. *)
let master_of placement = fst (Report.Flow.master placement)

let placement t ~design ~name ~arch ~scale ~utilization =
  let key =
    Printf.sprintf "%s/u%.17g" (netlist_key ~name ~arch ~scale) utilization
  in
  lookup t.placements key (fun () ->
      master_of (Report.Flow.prepare_placement ~utilization design))

(* A rejected DEF counts as a miss but is never stored: only placements
   that survived binding and the legality oracle enter the table, so a
   hit can skip both, and only those are routed for their baseline. *)
let external_placement t ~lib ~arch ~def_text =
  let key =
    Pdk.Cell_arch.to_string arch ^ "/"
    ^ Digest.to_hex (Digest.string def_text)
  in
  match
    lookup t.externals key (fun () ->
        match Io.Def.read lib def_text with
        | Error msg -> raise (Rejected msg)
        | Stdlib.Ok (design, pl) -> (
          let p = Place.Placement.of_def design pl in
          match Place.Legalize.check p with
          | [] -> master_of p
          | v :: _ -> raise (Rejected ("illegal placement: " ^ v))))
  with
  | pair -> Stdlib.Ok pair
  | exception Rejected msg -> Error msg

let stats t =
  [
    ("external", t.externals.hits, t.externals.misses);
    ("library", t.libraries.hits, t.libraries.misses);
    ("netlist", t.netlists.hits, t.netlists.misses);
    ("placement", t.placements.hits, t.placements.misses);
  ]
