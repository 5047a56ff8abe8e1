module J = Obs.Json

type def_source = Inline of string | Path of string

type source =
  | Generated of {
      design : Netlist.Designs.name;
      scale : int;
      util : float;
    }
  | External of def_source

type job = {
  id : string;
  source : source;
  arch : Pdk.Cell_arch.t;
  alpha : float option;
  sequence : int;
  solver : Vm1.Scp_solver.mode option;
  want_trace : bool;
}

let generated_job ~id ?(arch = Pdk.Cell_arch.Closed_m1) ?(scale = 8)
    ?(util = 0.75) ?alpha ?(sequence = 1) ?solver ?(want_trace = false)
    design =
  { id; source = Generated { design; scale; util }; arch; alpha; sequence;
    solver; want_trace }

type error_code = Parse_error | Unsupported_schema | Bad_request | Internal

let error_code_string = function
  | Parse_error -> "parse_error"
  | Unsupported_schema -> "unsupported_schema"
  | Bad_request -> "bad_request"
  | Internal -> "internal"

type error = {
  code : error_code;
  message : string;
  err_id : string option;
}

type result = {
  r_design : string;
  r_arch : string;
  r_scale : int option;
  r_util : float option;
  r_alpha : float;
  r_sequence : int;
  instances : int;
  init : Report.Flow.eval;
  final : Report.Flow.eval;
  digest : string;
}

type reply =
  | Ok of {
      job : job;
      result : result;
      artifacts : (string * bool) list;
      latency_ms : float;
      trace : Obs.Json.t option;
    }
  | Err of error

(* --- encoding ------------------------------------------------------- *)

let encode_job j =
  let source_fields =
    match j.source with
    | Generated { design; scale; util } ->
      [
        ("design", J.Str (Netlist.Designs.to_string design));
        ("arch", J.Str (Pdk.Cell_arch.to_string j.arch));
        ("scale", J.Int scale);
        ("util", J.Float util);
      ]
    | External (Inline text) ->
      [
        ("def", J.Str text);
        ("arch", J.Str (Pdk.Cell_arch.to_string j.arch));
      ]
    | External (Path path) ->
      [
        ("def_path", J.Str path);
        ("arch", J.Str (Pdk.Cell_arch.to_string j.arch));
      ]
  in
  let fields =
    [ ("schema", J.Str Obs.Schemas.jobs); ("id", J.Str j.id) ]
    @ source_fields
    @ (match j.alpha with Some a -> [ ("alpha", J.Float a) ] | None -> [])
    @ [ ("sequence", J.Int j.sequence) ]
    @ (match j.solver with
      | Some m -> [ ("solver", J.Str (Vm1.Scp_solver.mode_to_string m)) ]
      | None -> [])
    @ if j.want_trace then [ ("trace", J.Bool true) ] else []
  in
  J.to_string (J.Obj fields)

let eval_json (e : Report.Flow.eval) =
  J.Obj
    [
      ("dm1", J.Int e.Report.Flow.dm1);
      ("m1_wl_um", J.Float e.m1_wl_um);
      ("via12", J.Int e.via12);
      ("hpwl_um", J.Float e.hpwl_um);
      ("rwl_um", J.Float e.rwl_um);
      ("wns_ns", J.Float e.wns_ns);
      ("power_mw", J.Float e.power_mw);
      ("drvs", J.Int e.drvs);
      ("alignments", J.Int e.alignments);
    ]

let result_json r =
  J.Obj
    [
      ("design", J.Str r.r_design);
      ("arch", J.Str r.r_arch);
      ("scale", (match r.r_scale with Some s -> J.Int s | None -> J.Null));
      ("util", (match r.r_util with Some u -> J.Float u | None -> J.Null));
      ("alpha", J.Float r.r_alpha);
      ("sequence", J.Int r.r_sequence);
      ("instances", J.Int r.instances);
      ("init", eval_json r.init);
      ("final", eval_json r.final);
      ("digest", J.Str r.digest);
    ]

let encode_reply = function
  | Ok { job; result; artifacts; latency_ms; trace } ->
    let cache =
      J.Obj
        (List.map
           (fun (name, hit) -> (name, J.Str (if hit then "hit" else "miss")))
           artifacts)
    in
    let fields =
      [
        ("schema", J.Str Obs.Schemas.jobs);
        ("id", J.Str job.id);
        ("status", J.Str "ok");
        ("result", result_json result);
        ("cache", cache);
        ("latency_ms", J.Float latency_ms);
      ]
      @ match trace with Some t -> [ ("trace", t) ] | None -> []
    in
    J.to_string (J.Obj fields)
  | Err e ->
    J.to_string
      (J.Obj
         [
           ("schema", J.Str Obs.Schemas.jobs);
           ( "id",
             match e.err_id with Some id -> J.Str id | None -> J.Null );
           ("status", J.Str "error");
           ( "error",
             J.Obj
               [
                 ("code", J.Str (error_code_string e.code));
                 ("message", J.Str e.message);
               ] );
         ])

(* --- request parsing ------------------------------------------------ *)

let fail ?id code fmt =
  Printf.ksprintf
    (fun message -> Error { code; message; err_id = id })
    fmt

(* Accept both Int and Float for numeric fields: JSON clients routinely
   print 0.75 as well as 1. *)
let as_float = function
  | J.Int i -> Some (float_of_int i)
  | J.Float f -> Some f
  | _ -> None

let ( let* ) = Result.bind

(* [design] selects a generated job; [def] (inline DEF text) or
   [def_path] (daemon-local file) an external one. Exactly one of the
   three must be present, and the generator axes (scale/util) are
   rejected on external jobs. *)
let parse_source ?id obj =
  let gen_axis name = J.member name obj <> None in
  match (J.member "design" obj, J.member "def" obj, J.member "def_path" obj) with
  | Some _, Some _, _ | Some _, _, Some _ ->
    fail ?id Bad_request
      "\"design\" and \"def\"/\"def_path\" are mutually exclusive"
  | _, Some _, Some _ ->
    fail ?id Bad_request "\"def\" and \"def_path\" are mutually exclusive"
  | None, None, None ->
    fail ?id Bad_request "missing \"design\", \"def\" or \"def_path\" field"
  | Some (J.Str d), None, None -> (
    match Netlist.Designs.of_string d with
    | None -> fail ?id Bad_request "unknown design %S (m0|aes|jpeg|vga)" d
    | Some design ->
      let* scale =
        match J.member "scale" obj with
        | None -> Stdlib.Ok 8
        | Some (J.Int n) when n >= 1 -> Stdlib.Ok n
        | Some _ -> fail ?id Bad_request "\"scale\" must be an integer >= 1"
      in
      let* util =
        match Option.map as_float (J.member "util" obj) with
        | None -> Stdlib.Ok 0.75
        | Some (Some u) when u > 0.0 && u < 1.0 -> Stdlib.Ok u
        | Some _ -> fail ?id Bad_request "\"util\" must be a number in (0,1)"
      in
      Stdlib.Ok (Generated { design; scale; util }))
  | Some _, None, None -> fail ?id Bad_request "\"design\" must be a string"
  | None, (Some _ as def), None | None, None, (Some _ as def) ->
    if gen_axis "scale" || gen_axis "util" then
      fail ?id Bad_request
        "\"scale\" and \"util\" apply only to generated jobs"
    else (
      match def with
      | Some (J.Str text) ->
        Stdlib.Ok
          (External
             (if J.member "def" obj <> None then Inline text else Path text))
      | _ ->
        fail ?id Bad_request "\"def\" and \"def_path\" must be strings")

let parse_job line =
  match J.parse line with
  | Error msg -> fail Parse_error "not a JSON line: %s" msg
  | Stdlib.Ok (J.Obj _ as obj) -> (
    let id =
      match J.member "id" obj with Some (J.Str s) -> Some s | _ -> None
    in
    match J.member "schema" obj with
    | None -> fail ?id Unsupported_schema "missing \"schema\" field"
    | Some (J.Str s) when not (String.equal s Obs.Schemas.jobs) ->
      fail ?id Unsupported_schema "schema %S is not %S" s Obs.Schemas.jobs
    | Some (J.Str _) -> (
      match id with
      | None -> fail Bad_request "missing or non-string \"id\" field"
      | Some id_s ->
        let id = Some id_s in
        let* source = parse_source ?id obj in
        let* arch =
          match J.member "arch" obj with
          | None -> Stdlib.Ok Pdk.Cell_arch.Closed_m1
          | Some (J.Str a) -> (
            match Pdk.Cell_arch.of_string a with
            | Some arch -> Stdlib.Ok arch
            | None ->
              fail ?id Bad_request "unknown arch %S (closedm1|openm1|conv12)" a)
          | Some _ -> fail ?id Bad_request "\"arch\" must be a string"
        in
        let* alpha =
          match Option.map as_float (J.member "alpha" obj) with
          | None -> Stdlib.Ok None
          | Some (Some a) when a > 0.0 -> Stdlib.Ok (Some a)
          | Some _ -> fail ?id Bad_request "\"alpha\" must be a number > 0"
        in
        let* sequence =
          match J.member "sequence" obj with
          | None -> Stdlib.Ok 1
          | Some (J.Int n) when n >= 1 && n <= 5 -> Stdlib.Ok n
          | Some _ ->
            fail ?id Bad_request "\"sequence\" must be an integer in 1..5"
        in
        let* solver =
          match J.member "solver" obj with
          | None -> Stdlib.Ok None
          | Some (J.Str s) -> (
            match Vm1.Scp_solver.mode_of_string s with
            | Some m -> Stdlib.Ok (Some m)
            | None ->
              fail ?id Bad_request
                "unknown solver %S (greedy|anneal|portfolio)" s)
          | Some _ -> fail ?id Bad_request "\"solver\" must be a string"
        in
        let* want_trace =
          match J.member "trace" obj with
          | None -> Stdlib.Ok false
          | Some (J.Bool b) -> Stdlib.Ok b
          | Some _ -> fail ?id Bad_request "\"trace\" must be a boolean"
        in
        Stdlib.Ok
          { id = id_s; source; arch; alpha; sequence; solver; want_trace })
    | Some _ -> fail ?id Unsupported_schema "\"schema\" must be a string")
  | Stdlib.Ok _ -> fail Parse_error "request line is not a JSON object"

(* --- reply parsing (client side) ------------------------------------ *)

type parsed_reply = {
  p_id : string option;
  p_status : string;
  p_result : Obs.Json.t option;
  p_latency_ms : float option;
  p_cache : (string * bool) list;
  p_error_code : string option;
}

let parse_reply line =
  match J.parse line with
  | Error msg -> Error ("not a JSON line: " ^ msg)
  | Stdlib.Ok (J.Obj _ as obj) -> (
    (match J.member "schema" obj with
    | Some (J.Str s) when String.equal s Obs.Schemas.jobs -> Stdlib.Ok ()
    | _ -> Error "missing vm1dp-jobs/1 schema tag")
    |> function
    | Error _ as e -> e
    | Stdlib.Ok () -> (
      match J.member "status" obj with
      | Some (J.Str status) ->
        Stdlib.Ok
          {
            p_id =
              (match J.member "id" obj with
              | Some (J.Str s) -> Some s
              | _ -> None);
            p_status = status;
            p_result = J.member "result" obj;
            p_latency_ms =
              Option.bind (J.member "latency_ms" obj) as_float;
            p_cache =
              (match J.member "cache" obj with
              | Some (J.Obj kvs) ->
                List.map
                  (fun (k, v) ->
                    (k, match v with J.Str "hit" -> true | _ -> false))
                  kvs
              | _ -> []);
            p_error_code =
              (match J.member "error" obj with
              | Some err -> (
                match J.member "code" err with
                | Some (J.Str c) -> Some c
                | _ -> None)
              | None -> None);
          }
      | _ -> Error "missing \"status\" field"))
  | Stdlib.Ok _ -> Error "reply line is not a JSON object"
