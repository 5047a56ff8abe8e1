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

(* one grid point, before running *)
type spec =
  | Gen of {
      s_id : string;
      name : Netlist.Designs.name;
      arch : Pdk.Cell_arch.t;
      util : float;
      scale : int;
      prm : Io.Manifest.params option;
    }
  | Ext of {
      s_id : string;
      def_path : string;
      lef_path : string option;
      arch : Pdk.Cell_arch.t;
      prm : Io.Manifest.params option;
    }

let specs_of_manifest (m : Io.Manifest.t) =
  let prms =
    match m.Io.Manifest.params with
    | [] -> [ None ]
    | ps -> List.map Option.some ps
  in
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
                    List.map
                      (fun prm ->
                        Gen
                          { s_id = e.Io.Manifest.e_id; name; arch; util; scale;
                            prm })
                      prms)
                  m.Io.Manifest.scales)
              m.Io.Manifest.utils)
          m.Io.Manifest.archs
      | Io.Manifest.External { def_path; lef_path; arch } ->
        List.map
          (fun prm ->
            Ext { s_id = e.Io.Manifest.e_id; def_path; lef_path; arch; prm })
          prms)
    m.Io.Manifest.entries

let no_params =
  { Io.Manifest.p_id = ""; alpha = None; sequence = None; router_layers = None;
    use_dm1 = None; row_dp = None; congestion_term = None }

(* the manifest's params set with every omitted field at its default
   for the design's technology *)
let resolve (design : Netlist.Design.t) prm =
  let defaults = Vm1.Params.default design.Netlist.Design.lib.Pdk.Libgen.tech in
  let q = Option.value prm ~default:no_params in
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
    router_layers =
      Option.value q.Io.Manifest.router_layers
        ~default:Route.Router.default_config.Route.Router.layers;
    use_dm1 =
      Option.value q.Io.Manifest.use_dm1
        ~default:Route.Router.default_config.Route.Router.use_dm1;
    row_dp = Option.value q.Io.Manifest.row_dp ~default:true;
    congestion_term = Option.value q.Io.Manifest.congestion_term ~default:false;
  }

(* the flow with the cell's params; VM1Opt runs sequentially — the cell
   grid is the unit of parallelism *)
let run_pipeline q p =
  let router_config =
    {
      Route.Router.default_config with
      Route.Router.layers = q.router_layers;
      use_dm1 = q.use_dm1;
    }
  in
  let params =
    { (Vm1.Params.default p.Place.Placement.tech) with Vm1.Params.alpha = q.alpha }
  in
  let base, route = Flow.baseline ~router_config params p in
  let config =
    {
      Vm1.Vm1_opt.default_config with
      Vm1.Vm1_opt.parallel = false;
      sequence = q.sequence;
      candidate_cost =
        (if q.congestion_term then Some (Flow.congestion_cost route) else None);
    }
  in
  Flow.optimise ~router_config ~config params base p

(* the cell's id and its reported params: none when the manifest has no
   params axis *)
let label id prm q =
  match prm with
  | Some _ -> (id ^ "/" ^ q.p_id, Some q)
  | None -> (id, None)

let run_cell = function
  | Gen { s_id; name; arch; util; scale; prm } ->
    let design = Netlist.Designs.make ~scale name arch in
    let q = resolve design prm in
    let p = Flow.prepare_placement ~utilization:util ~detailed:q.row_dp design in
    let c = run_pipeline q p in
    let cell_id, params =
      label
        (Printf.sprintf "%s/%s/u%.2f/s%d" s_id (Pdk.Cell_arch.to_string arch)
           util scale)
        prm q
    in
    Ok
      {
        cell_id;
        design_name = Netlist.Designs.to_string name;
        arch;
        util = Some util;
        scale = Some scale;
        params;
        instances = c.Flow.instances;
        init = c.Flow.init;
        final = c.Flow.final;
        opt_runtime_s = c.Flow.opt_runtime_s;
      }
  | Ext { s_id; def_path; lef_path; arch; prm } ->
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
        | Ok (design, def) ->
          let q = resolve design prm in
          let c = run_pipeline q (Place.Placement.of_def design def) in
          let cell_id, params = label (s_id ^ "/ext") prm q in
          Ok
            {
              cell_id;
              design_name = design.Netlist.Design.name;
              arch = lib.Pdk.Libgen.tech.Pdk.Tech.arch;
              util = None;
              scale = None;
              params;
              instances = c.Flow.instances;
              init = c.Flow.init;
              final = c.Flow.final;
              opt_runtime_s = c.Flow.opt_runtime_s;
            })

let run (m : Io.Manifest.t) =
  match Io.Manifest.digest m with
  | exception Sys_error msg -> Error msg
  | manifest_digest ->
    let specs = Array.of_list (specs_of_manifest m) in
    let results = Exec.parallel_map ~chunk:1 run_cell specs in
    let rec collect acc i =
      if i >= Array.length results then Ok (List.rev acc)
      else
        match results.(i) with
        | Ok c -> collect (c :: acc) (i + 1)
        | Error msg -> Error msg
    in
    Result.map
      (fun cells ->
        { manifest_name = m.Io.Manifest.m_name; manifest_digest; cells })
      (collect [] 0)

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
