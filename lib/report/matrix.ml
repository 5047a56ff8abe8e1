type params = {
  p_id : string;
  alpha : float;
  sequence : Vm1.Params.step list;
  router_layers : int;
  use_dm1 : bool;
  row_dp : bool;
  congestion_term : bool;
}

type cell = {
  cell_id : string;
  design_name : string;
  arch : Pdk.Cell_arch.t;
  util : float option;
  scale : int option;
  params : params option;
  instances : int;
  init : Flow.eval;
  final : Flow.eval;
  opt_runtime_s : float;
}

type report = {
  manifest_name : string;
  manifest_digest : string;
  cells : cell list;
}

(* one grid point, before running: where its placement comes from,
   and the params set its cell runs *)
type source =
  | Gen of {
      name : Netlist.Designs.name;
      arch : Pdk.Cell_arch.t;
      util : float;
      scale : int;
    }
  | Ext of {
      def_path : string;
      lef_path : string option;
      arch : Pdk.Cell_arch.t;
    }

type spec = {
  s_id : string;
  source : source;
  prm : Io.Manifest.params option;
}

let specs_of_manifest (m : Io.Manifest.t) =
  let prms =
    match m.Io.Manifest.params with
    | [] -> [ None ]
    | ps -> List.map Option.some ps
  in
  let cells s_id source = List.map (fun prm -> { s_id; source; prm }) prms in
  List.concat_map
    (fun (e : Io.Manifest.entry) ->
      match e.Io.Manifest.source with
      | Io.Manifest.Generate name ->
        List.concat_map
          (fun arch ->
            List.concat_map
              (fun util ->
                List.concat_map
                  (fun scale ->
                    cells e.Io.Manifest.e_id (Gen { name; arch; util; scale }))
                  m.Io.Manifest.scales)
              m.Io.Manifest.utils)
          m.Io.Manifest.archs
      | Io.Manifest.External { def_path; lef_path; arch } ->
        cells e.Io.Manifest.e_id (Ext { def_path; lef_path; arch }))
    m.Io.Manifest.entries

let no_params =
  { Io.Manifest.p_id = ""; alpha = None; sequence = None; router_layers = None;
    use_dm1 = None; row_dp = None; congestion_term = None }

(* the switches of a params set that act before VM1Opt, at their
   defaults when omitted: the row DP after global placement, the router
   both routes use, and the congestion term (built from the baseline
   route) *)
let switches prm =
  let q = Option.value prm ~default:no_params in
  let d = Route.Router.default_config in
  ( Option.value q.Io.Manifest.row_dp ~default:true,
    {
      d with
      Route.Router.layers =
        Option.value q.Io.Manifest.router_layers ~default:d.Route.Router.layers;
      use_dm1 = Option.value q.Io.Manifest.use_dm1 ~default:d.Route.Router.use_dm1;
    },
    Option.value q.Io.Manifest.congestion_term ~default:false )

(* the manifest's params set with every omitted field at its default
   for the technology *)
let resolve tech prm =
  let defaults = Vm1.Params.default tech in
  let q = Option.value prm ~default:no_params in
  let row_dp, router, congestion_term = switches prm in
  {
    p_id = q.Io.Manifest.p_id;
    alpha = Option.value q.Io.Manifest.alpha ~default:defaults.Vm1.Params.alpha;
    sequence =
      (match q.Io.Manifest.sequence with
      | None -> Vm1.Params.default_sequence
      | Some steps ->
        List.map
          (fun (s : Io.Manifest.step) ->
            { Vm1.Params.bw_um = s.Io.Manifest.bw_um; lx = s.lx; ly = s.ly })
          steps);
    router_layers = router.Route.Router.layers;
    use_dm1 = router.Route.Router.use_dm1;
    row_dp;
    congestion_term;
  }

(* Phase 1: the master of a group of cells, and the congestion map of
   its baseline route when [congested]; the route is dropped once the
   map is built. *)
let prepare ((s : spec), congested) =
  let row_dp, router_config, _ = switches s.prm in
  let placement =
    match s.source with
    | Gen { name; arch; util; scale } ->
      Ok
        (Flow.prepare_placement ~utilization:util ~detailed:row_dp
           (Netlist.Designs.make ~scale name arch))
    | Ext { def_path; lef_path; arch } ->
      let lib =
        match lef_path with
        | Some path ->
          (match Io.Lef.parse_file path with
          | Ok lib -> Ok lib
          | Error e ->
            Error (Printf.sprintf "%s: %s" path (Io.Lex.error_to_string e)))
        | None -> Ok (Pdk.Libgen.generate (Pdk.Tech.default arch))
      in
      Result.bind lib (fun lib ->
          match Io.Def.read_file lib def_path with
          | Error msg -> Error (Printf.sprintf "%s: %s" def_path msg)
          | Ok (design, def) -> Ok (Place.Placement.of_def design def))
  in
  Result.map
    (fun p ->
      let m, route = Flow.master ~router_config p in
      (m, if congested then Some (Flow.congestion_cost route) else None))
    placement

(* Phase 2: one cell, VM1Opt and the re-route on a copy of its group's
   master *)
let run_cell masters ((s : spec), g) =
  let m, cost = masters.(g) in
  let p = Place.Placement.copy m.Flow.placement in
  let q = resolve p.Place.Placement.tech s.prm in
  let _, router_config, _ = switches s.prm in
  let params =
    { (Vm1.Params.default p.Place.Placement.tech) with Vm1.Params.alpha = q.alpha }
  in
  let config =
    {
      Vm1.Vm1_opt.default_config with
      Vm1.Vm1_opt.parallel = false;
      sequence = q.sequence;
      candidate_cost = (if q.congestion_term then cost else None);
    }
  in
  let c = Flow.optimise ~router_config ~config params m.Flow.baseline p in
  let id, util, scale =
    match s.source with
    | Gen { arch; util; scale; _ } ->
      ( Printf.sprintf "%s/%s/u%.2f/s%d" s.s_id (Pdk.Cell_arch.to_string arch)
          util scale,
        Some util,
        Some scale )
    | Ext _ -> (s.s_id ^ "/ext", None, None)
  in
  {
    (* a manifest without params reports none and keeps the bare id *)
    cell_id = (if Option.is_some s.prm then id ^ "/" ^ q.p_id else id);
    design_name = p.Place.Placement.design.Netlist.Design.name;
    arch = p.Place.Placement.tech.Pdk.Tech.arch;
    util;
    scale;
    params = Option.map (fun _ -> q) s.prm;
    instances = c.Flow.instances;
    init = c.Flow.init;
    final = c.Flow.final;
    opt_runtime_s = c.Flow.opt_runtime_s;
  }

let run (m : Io.Manifest.t) =
  match Io.Manifest.digest m with
  | exception Sys_error msg -> Error msg
  | manifest_digest -> (
    let specs = Array.of_list (specs_of_manifest m) in
    (* Cells share a master when they share a placement source and the
       row-DP and router switches (a manifest with a DEF entry cannot set
       row_dp). The congestion term only reads the baseline route, so it
       splits no group. Groups are numbered in order of their first
       cell. *)
    let key s =
      let row_dp, r, _ = switches s.prm in
      (s.source, row_dp, r.Route.Router.layers, r.Route.Router.use_dm1)
    in
    let index = Hashtbl.create 16 in
    let cells =
      Array.map
        (fun s ->
          let k = key s in
          if not (Hashtbl.mem index k) then
            Hashtbl.replace index k (Hashtbl.length index);
          (s, Hashtbl.find index k))
        specs
    in
    let groups =
      Array.init (Hashtbl.length index) (fun g ->
          match List.filter (fun (_, h) -> h = g) (Array.to_list cells) with
          | (first, _) :: _ as mine ->
            let congested (s, _) =
              let _, _, c = switches s.prm in
              c
            in
            (first, List.exists congested mine)
          | [] -> assert false (* a group exists through its cells *))
    in
    let prepared = Exec.parallel_map ~chunk:1 prepare groups in
    (* the first failing group is the first failing cell's *)
    match Array.find_map (function Error e -> Some e | Ok _ -> None) prepared with
    | Some msg -> Error msg
    | None ->
      let masters = Array.map Result.get_ok prepared in
      let cells = Exec.parallel_map ~chunk:1 (run_cell masters) cells in
      Ok
        { manifest_name = m.Io.Manifest.m_name; manifest_digest;
          cells = Array.to_list cells })

(* --- report forms ----------------------------------------------------- *)

let eval_json (e : Flow.eval) =
  Obs.Json.Obj
    [
      ("dm1", Obs.Json.Int e.Flow.dm1);
      ("m1_wl_um", Obs.Json.Float e.Flow.m1_wl_um);
      ("via12", Obs.Json.Int e.Flow.via12);
      ("hpwl_um", Obs.Json.Float e.Flow.hpwl_um);
      ("rwl_um", Obs.Json.Float e.Flow.rwl_um);
      ("wns_ns", Obs.Json.Float e.Flow.wns_ns);
      ("power_mw", Obs.Json.Float e.Flow.power_mw);
      ("drvs", Obs.Json.Int e.Flow.drvs);
      ("alignments", Obs.Json.Int e.Flow.alignments);
    ]

let params_json q =
  let open Obs.Json in
  Obj
    ([
      ("id", Str q.p_id);
      ("alpha", Float q.alpha);
      ( "sequence",
        List
          (List.map
             (fun (s : Vm1.Params.step) ->
               List [ Float s.Vm1.Params.bw_um; Int s.lx; Int s.ly ])
             q.sequence) );
      ("router_layers", Int q.router_layers);
    ]
    (* a switch is listed only off its default, so reports of manifests
       that never set it keep their bytes *)
    @ (if q.use_dm1 then [] else [ ("use_dm1", Bool false) ])
    @ (if q.row_dp then [] else [ ("row_dp", Bool false) ])
    @ if q.congestion_term then [ ("congestion_term", Bool true) ] else [])

let cell_json (c : cell) =
  let open Obs.Json in
  Obj
    ([
      ("id", Str c.cell_id);
      ("design", Str c.design_name);
      ("arch", Str (Pdk.Cell_arch.to_string c.arch));
      ("util", match c.util with Some u -> Float u | None -> Null);
      ("scale", match c.scale with Some s -> Int s | None -> Null);
    ]
  @ (match c.params with Some q -> [ ("params", params_json q) ] | None -> [])
  @ [
      ("instances", Int c.instances);
      ("init", eval_json c.init);
      ("final", eval_json c.final);
      ( "delta_pct",
        Obj
          [
            ("hpwl", Float (Flow.delta_pct c.init.Flow.hpwl_um c.final.Flow.hpwl_um));
            ("rwl", Float (Flow.delta_pct c.init.Flow.rwl_um c.final.Flow.rwl_um));
            ("m1_wl", Float (Flow.delta_pct c.init.Flow.m1_wl_um c.final.Flow.m1_wl_um));
            ( "via12",
              Float
                (Flow.delta_pct
                   (float_of_int c.init.Flow.via12)
                   (float_of_int c.final.Flow.via12)) );
          ] );
    ])

let to_json (r : report) =
  let open Obs.Json in
  Obj
    [
      ("schema", Str Obs.Schemas.expt_matrix);
      ("manifest", Str r.manifest_name);
      ("manifest_digest", Str r.manifest_digest);
      ("cells", List (List.map cell_json r.cells));
    ]

let render (r : report) =
  let header =
    [ "cell"; "inst"; "dM1 i->f"; "via12 i->f"; "RWL um (d%)";
      "HPWL um (d%)"; "DRV i->f"; "opt s" ]
  in
  let rows =
    List.map
      (fun c ->
        [
          c.cell_id;
          Table.fi c.instances;
          Printf.sprintf "%d -> %d" c.init.Flow.dm1 c.final.Flow.dm1;
          Printf.sprintf "%d -> %d" c.init.Flow.via12 c.final.Flow.via12;
          Table.f1 c.final.Flow.rwl_um
          ^ " " ^ Table.pct c.init.Flow.rwl_um c.final.Flow.rwl_um;
          Table.f1 c.final.Flow.hpwl_um
          ^ " " ^ Table.pct c.init.Flow.hpwl_um c.final.Flow.hpwl_um;
          Printf.sprintf "%d -> %d" c.init.Flow.drvs c.final.Flow.drvs;
          Table.f2 c.opt_runtime_s;
        ])
      r.cells
  in
  Printf.sprintf "matrix %s (%d cells, manifest %s)\n%s" r.manifest_name
    (List.length r.cells)
    (String.sub r.manifest_digest 0 12)
    (Table.render ~header ~rows)
