type source =
  | Generate of Netlist.Designs.name
  | External of {
      def_path : string;
      lef_path : string option;
      arch : Pdk.Cell_arch.t;
    }

type entry = { e_id : string; source : source }

type step = { bw_um : float; lx : int; ly : int }

type params = {
  p_id : string;
  alpha : float option;
  sequence : step list option;
  router_layers : int option;
  use_dm1 : bool option;
  row_dp : bool option;
  congestion_term : bool option;
}

type t = {
  m_name : string;
  entries : entry list;
  archs : Pdk.Cell_arch.t list;
  utils : float list;
  scales : int list;
  params : params list;
}

(* --- JSON ------------------------------------------------------------ *)

let ( let* ) = Result.bind

let str ~what = function
  | Obs.Json.Str s -> Ok s
  | j -> Error (Printf.sprintf "%s: expected a string, got %s" what (Obs.Json.to_string j))

let field obj key ~what =
  match Obs.Json.member key obj with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing %S" what key)

let list_of ~what f = function
  | Obs.Json.List xs ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | x :: rest ->
        let* v = f x in
        go (v :: acc) rest
    in
    go [] xs
  | j -> Error (Printf.sprintf "%s: expected a list, got %s" what (Obs.Json.to_string j))

let number ~what = function
  | Obs.Json.Int n -> Ok (float_of_int n)
  | Obs.Json.Float f -> Ok f
  | j -> Error (Printf.sprintf "%s: expected a number, got %s" what (Obs.Json.to_string j))

let int_of ~what = function
  | Obs.Json.Int n -> Ok n
  | j -> Error (Printf.sprintf "%s: expected an integer, got %s" what (Obs.Json.to_string j))

let bool_of ~what = function
  | Obs.Json.Bool b -> Ok b
  | j -> Error (Printf.sprintf "%s: expected a boolean, got %s" what (Obs.Json.to_string j))

let arch_of_json ~what j =
  let* s = str ~what j in
  match Pdk.Cell_arch.of_string s with
  | Some a -> Ok a
  | None -> Error (Printf.sprintf "%s: unknown architecture %S" what s)

let opt_field obj key f =
  match Obs.Json.member key obj with
  | None -> Ok None
  | Some v -> Result.map Option.some (f v)

let require cond msg = if cond then Ok () else Error msg

let no_duplicates ~what ids =
  let seen = Hashtbl.create 7 in
  let rec go = function
    | [] -> Ok ()
    | id :: rest ->
      if Hashtbl.mem seen id then
        Error (Printf.sprintf "manifest: duplicate %s id %S" what id)
      else begin
        Hashtbl.replace seen id ();
        go rest
      end
  in
  go ids

let entry_of_json j =
  let* id = Result.bind (field j "id" ~what:"design entry") (str ~what:"design id") in
  let what = Printf.sprintf "design %S" id in
  match Obs.Json.member "generate" j, Obs.Json.member "def" j with
  | Some _, Some _ ->
    Error (Printf.sprintf "%s: has both \"generate\" and \"def\"" what)
  | Some g, None ->
    let* s = str ~what:(what ^ ": \"generate\"") g in
    (match Netlist.Designs.of_string s with
    | Some name -> Ok { e_id = id; source = Generate name }
    | None -> Error (Printf.sprintf "%s: unknown generator design %S" what s))
  | None, Some d ->
    let* def_path = str ~what:(what ^ ": \"def\"") d in
    let* lef_path = opt_field j "lef" (str ~what:(what ^ ": \"lef\"")) in
    let* arch =
      match Obs.Json.member "arch" j with
      | None -> Ok Pdk.Cell_arch.Closed_m1
      | Some a -> arch_of_json ~what:(what ^ ": \"arch\"") a
    in
    Ok { e_id = id; source = External { def_path; lef_path; arch } }
  | None, None ->
    Error (Printf.sprintf "%s: needs \"generate\" or \"def\"" what)

let step_of_json ~what = function
  | Obs.Json.List [ bw; lx; ly ] ->
    let* bw_um = number ~what bw in
    let* lx = int_of ~what lx in
    let* ly = int_of ~what ly in
    let* () =
      require (bw_um > 0.0 && lx >= 0 && ly >= 0)
        (Printf.sprintf "%s: step [%g, %d, %d] needs bw_um > 0, lx >= 0, ly >= 0"
           what bw_um lx ly)
    in
    Ok { bw_um; lx; ly }
  | j ->
    Error
      (Printf.sprintf "%s: expected a [bw_um, lx, ly] step, got %s" what
         (Obs.Json.to_string j))

let params_keys =
  [ "id"; "alpha"; "sequence"; "router_layers"; "use_dm1"; "row_dp";
    "congestion_term" ]

let params_of_json j =
  let* p_id = Result.bind (field j "id" ~what:"params entry") (str ~what:"params id") in
  let what = Printf.sprintf "manifest: params %S" p_id in
  let* () =
    match j with
    | Obs.Json.Obj kvs ->
      (match List.find_opt (fun (k, _) -> not (List.mem k params_keys)) kvs with
      | Some (k, _) -> Error (Printf.sprintf "%s: unknown key %S" what k)
      | None -> Ok ())
    | _ -> Ok ()
  in
  let* alpha = opt_field j "alpha" (number ~what:(what ^ ": alpha")) in
  let* () =
    require
      (match alpha with Some a -> a >= 0.0 | None -> true)
      (what ^ ": alpha must be >= 0")
  in
  let* sequence =
    opt_field j "sequence"
      (list_of ~what:(what ^ ": sequence") (step_of_json ~what:(what ^ ": sequence")))
  in
  let* () =
    require (sequence <> Some []) (what ^ ": sequence must not be empty")
  in
  let* router_layers =
    opt_field j "router_layers" (int_of ~what:(what ^ ": router_layers"))
  in
  let* () =
    require
      (match router_layers with Some n -> n >= 2 && n <= 6 | None -> true)
      (what ^ ": router_layers must be in 2..6")
  in
  let switch key = opt_field j key (bool_of ~what:(what ^ ": " ^ key)) in
  let* use_dm1 = switch "use_dm1" in
  let* row_dp = switch "row_dp" in
  let* congestion_term = switch "congestion_term" in
  Ok { p_id; alpha; sequence; router_layers; use_dm1; row_dp; congestion_term }

let of_json j =
  let what = "manifest" in
  let* schema = Result.bind (field j "schema" ~what) (str ~what:"schema") in
  let* () =
    if String.equal schema Obs.Schemas.bench_manifest then Ok ()
    else
      Error
        (Printf.sprintf "manifest: schema %S, expected %S" schema
           Obs.Schemas.bench_manifest)
  in
  let* m_name = Result.bind (field j "name" ~what) (str ~what:"name") in
  let* entries =
    Result.bind (field j "designs" ~what) (list_of ~what:"designs" entry_of_json)
  in
  let* archs =
    Result.bind (field j "archs" ~what)
      (list_of ~what:"archs" (arch_of_json ~what:"archs"))
  in
  let* utils =
    Result.bind (field j "utils" ~what) (list_of ~what:"utils" (number ~what:"utils"))
  in
  let* scales =
    Result.bind (field j "scales" ~what)
      (list_of ~what:"scales" (int_of ~what:"scales"))
  in
  let* params =
    opt_field j "params" (list_of ~what:"params" params_of_json)
  in
  let* () = require (entries <> []) "manifest: no designs" in
  let* () = no_duplicates ~what:"design" (List.map (fun e -> e.e_id) entries) in
  let* () = require (archs <> []) "manifest: no archs" in
  let* () = require (utils <> []) "manifest: no utils" in
  let* () = require (scales <> []) "manifest: no scales" in
  let* () =
    match List.find_opt (fun u -> not (u > 0.0 && u <= 1.0)) utils with
    | Some u -> Error (Printf.sprintf "manifest: util %g not in (0, 1]" u)
    | None -> Ok ()
  in
  let* () =
    match List.find_opt (fun s -> s < 1) scales with
    | Some s -> Error (Printf.sprintf "manifest: scale %d must be >= 1" s)
    | None -> Ok ()
  in
  let* params =
    match params with
    | None -> Ok []
    | Some [] -> Error "manifest: no params"
    | Some ps ->
      let* () = no_duplicates ~what:"params" (List.map (fun p -> p.p_id) ps) in
      (* an external placement is fixed by its file: there is no row DP
         to switch *)
      let* () =
        match
          ( List.find_opt (fun p -> p.row_dp <> None) ps,
            List.find_opt
              (fun e -> match e.source with External _ -> true | Generate _ -> false)
              entries )
        with
        | Some p, Some e ->
          Error
            (Printf.sprintf
               "manifest: params %S: row_dp applies to generated designs only, \
                but design %S is external"
               p.p_id e.e_id)
        | _ -> Ok ()
      in
      Ok ps
  in
  Ok { m_name; entries; archs; utils; scales; params }

let entry_to_json e =
  let open Obs.Json in
  match e.source with
  | Generate name ->
    Obj
      [
        ("id", Str e.e_id); ("generate", Str (Netlist.Designs.to_string name));
      ]
  | External { def_path; lef_path; arch } ->
    Obj
      (("id", Str e.e_id)
      :: ("def", Str def_path)
      :: (match lef_path with
         | Some p -> [ ("lef", Str p) ]
         | None -> [ ("arch", Str (Pdk.Cell_arch.to_string arch)) ]))

let params_to_json p =
  let open Obs.Json in
  let opt key f = function Some v -> [ (key, f v) ] | None -> [] in
  Obj
    ((("id", Str p.p_id) :: opt "alpha" (fun a -> Float a) p.alpha)
    @ opt "sequence"
        (fun steps ->
          List (List.map (fun s -> List [ Float s.bw_um; Int s.lx; Int s.ly ]) steps))
        p.sequence
    @ opt "router_layers" (fun n -> Int n) p.router_layers
    @ opt "use_dm1" (fun b -> Bool b) p.use_dm1
    @ opt "row_dp" (fun b -> Bool b) p.row_dp
    @ opt "congestion_term" (fun b -> Bool b) p.congestion_term)

let to_json m =
  let open Obs.Json in
  Obj
    ([
      ("schema", Str Obs.Schemas.bench_manifest);
      ("name", Str m.m_name);
      ("designs", List (List.map entry_to_json m.entries));
      ("archs", List (List.map (fun a -> Str (Pdk.Cell_arch.to_string a)) m.archs));
      ("utils", List (List.map (fun u -> Float u) m.utils));
      ("scales", List (List.map (fun s -> Int s) m.scales));
    ]
    (* absent when empty, so a manifest without params keeps its bytes
       (and its digest) *)
    @ match m.params with
      | [] -> []
      | ps -> [ ("params", List (List.map params_to_json ps)) ])

let parse s =
  let* j = Obs.Json.parse s in
  of_json j

let load path =
  let* m = parse (Lex.read_whole_file path) in
  let dir = Filename.dirname path in
  let resolve p = if Filename.is_relative p then Filename.concat dir p else p in
  let entries =
    List.map
      (fun e ->
        match e.source with
        | Generate _ -> e
        | External x ->
          {
            e with
            source =
              External
                {
                  x with
                  def_path = resolve x.def_path;
                  lef_path = Option.map resolve x.lef_path;
                };
          })
      m.entries
  in
  Ok { m with entries }

(* external paths are replaced by their file-content digests, so the
   key does not depend on where the manifest (or the process) lives *)
let digest m =
  let file_key p = Digest.to_hex (Digest.string (Lex.read_whole_file p)) in
  let canon_entry e =
    match e.source with
    | Generate _ -> e
    | External x ->
      {
        e with
        source =
          External
            {
              x with
              def_path = file_key x.def_path;
              lef_path = Option.map file_key x.lef_path;
            };
      }
  in
  let canon = { m with entries = List.map canon_entry m.entries } in
  Digest.to_hex (Digest.string (Obs.Json.to_string (to_json canon)))
