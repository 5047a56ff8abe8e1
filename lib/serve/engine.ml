type artifacts = {
  master : Report.Flow.master;  (** shared, read-only: copy before use *)
  resolved : (string * bool) list;  (** per-store outcome, for the reply *)
}

type prepared = {
  job : Protocol.job;
  art : (artifacts, Protocol.error) result;
  resolve_ns : int64;
}

let hit = function Cache.Hit -> true | Cache.Miss -> false

let prepare cache (job : Protocol.job) =
  let t0 = Obs.now_ns () in
  let bad_request message =
    Error { Protocol.code = Protocol.Bad_request; message;
            err_id = Some job.id }
  in
  let art =
    match
      match job.source with
      | Protocol.Generated { design; scale; util } ->
        let lib, l_o = Cache.library cache job.arch in
        let netlist, n_o =
          Cache.netlist cache ~lib ~name:design ~arch:job.arch ~scale
        in
        let master, p_o =
          Cache.placement cache ~design:netlist ~name:design ~arch:job.arch
            ~scale ~utilization:util
        in
        Ok
          {
            master;
            resolved =
              [
                ("library", hit l_o);
                ("netlist", hit n_o);
                ("placement", hit p_o);
              ];
          }
      | Protocol.External src -> (
        let def_text =
          match src with
          | Protocol.Inline text -> Ok text
          | Protocol.Path path -> (
            match Io.Lex.read_whole_file path with
            | text -> Ok text
            | exception Sys_error msg ->
              bad_request (Printf.sprintf "cannot read \"def_path\": %s" msg))
        in
        match def_text with
        | Error _ as e -> e
        | Ok text -> (
          let lib, l_o = Cache.library cache job.arch in
          match
            Cache.external_placement cache ~lib ~arch:job.arch ~def_text:text
          with
          | Error msg -> bad_request ("DEF rejected: " ^ msg)
          | Ok (master, e_o) ->
            Ok
              {
                master;
                resolved = [ ("library", hit l_o); ("external", hit e_o) ];
              }))
    with
    | a -> a
    | exception e ->
      Error
        {
          Protocol.code = Protocol.Internal;
          message = "artifact resolution failed: " ^ Printexc.to_string e;
          err_id = Some job.id;
        }
  in
  { job; art; resolve_ns = Int64.sub (Obs.now_ns ()) t0 }

(* Marshal-free placement fingerprint: coordinates and orientations in
   textual form, hashed. Covers exactly the job-mutable state, so equal
   digests mean the optimiser made identical decisions. *)
let placement_digest (p : Place.Placement.t) =
  let b = Buffer.create (8 * Array.length p.Place.Placement.xs) in
  Array.iter
    (fun x ->
      Buffer.add_string b (string_of_int x);
      Buffer.add_char b ',')
    p.Place.Placement.xs;
  Buffer.add_char b ';';
  Array.iter
    (fun y ->
      Buffer.add_string b (string_of_int y);
      Buffer.add_char b ',')
    p.Place.Placement.ys;
  Buffer.add_char b ';';
  Array.iter
    (fun o ->
      Buffer.add_string b (Geom.Orient.to_string o);
      Buffer.add_char b ',')
    p.Place.Placement.orients;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* One window memo-cache per worker domain. Like Cache, a Wcache is
   domain-confined mutable state; jobs execute on pool workers, so each
   worker warms and probes only its own instance. Warm entries carry
   across jobs: a repeated job replays its converged windows. Byte
   identity is unaffected (hit ≡ miss), so replies stay identical
   whichever worker — warm or cold — picks a job up. *)
let wcache_slot = Exec.Dls.create (fun () -> Vm1.Wcache.create ())

let run_flow (job : Protocol.job) (a : artifacts) =
  let q = Place.Placement.copy a.master.Report.Flow.placement in
  let params =
    let base = Vm1.Params.default q.Place.Placement.tech in
    match job.alpha with
    | Some alpha -> { base with Vm1.Params.alpha }
    | None -> base
  in
  let config =
    { Vm1.Vm1_opt.default_config with
      Vm1.Vm1_opt.sequence = Vm1.Params.sequence job.sequence;
      mode = (match job.solver with Some m -> m | None -> `Greedy);
      parallel = false;
      wcache = Vm1.Vm1_opt.Shared_wcache (Exec.Dls.get wcache_slot) }
  in
  (* the baseline came with the master (see Cache): only the optimised
     placement is routed here *)
  let c =
    Report.Flow.optimise ~config params
      a.master.Report.Flow.baseline q
  in
  let r_scale, r_util =
    match job.source with
    | Protocol.Generated { scale; util; _ } -> (Some scale, Some util)
    | Protocol.External _ -> (None, None)
  in
  {
    (* For external jobs the placement's design carries the DEF's
       [DESIGN] name; for generated ones it equals the request field. *)
    Protocol.r_design = q.Place.Placement.design.Netlist.Design.name;
    r_arch = Pdk.Cell_arch.to_string job.arch;
    r_scale;
    r_util;
    r_alpha = params.Vm1.Params.alpha;
    r_sequence = job.sequence;
    instances = Place.Placement.num_instances q;
    init = c.Report.Flow.init;
    final = c.final;
    digest = placement_digest q;
  }

(* The trace blob of a traced job: the root spans whose start lies
   inside the job's run, over the daemon's cumulative metrics. Traced
   jobs run drained and inline (see Daemon), so those roots belong to
   this job alone. *)
let with_job_trace f =
  let was_enabled = Obs.enabled () in
  Obs.set_enabled true;
  let t0 = Obs.now_ns () in
  let finish () =
    let snap = Obs.snapshot () in
    let job_spans =
      List.filter
        (fun (s : Obs.Span.t) -> Int64.compare s.Obs.Span.start_ns t0 >= 0)
        snap.Obs.spans
    in
    Obs.set_enabled was_enabled;
    Obs.trace_json { snap with Obs.spans = job_spans }
  in
  match f () with
  | v -> (v, finish ())
  | exception e ->
    Obs.set_enabled was_enabled;
    raise e

let h_latency = Obs.histogram "serve.job_latency_ms"

let execute { job; art; resolve_ns } =
  match art with
  | Error e -> Protocol.Err e
  | Ok a -> (
    let t0 = Obs.now_ns () in
    match
      if job.want_trace then
        let result, trace = with_job_trace (fun () -> run_flow job a) in
        (result, Some trace)
      else (run_flow job a, None)
    with
    | result, trace ->
      let latency_ms =
        Int64.to_float (Int64.add resolve_ns (Int64.sub (Obs.now_ns ()) t0))
        /. 1e6
      in
      Obs.Histogram.observe h_latency latency_ms;
      Protocol.Ok
        { job; result; artifacts = a.resolved; latency_ms; trace }
    | exception e ->
      Protocol.Err
        {
          Protocol.code = Protocol.Internal;
          message = Printexc.to_string e;
          err_id = Some job.id;
        })

let run cache job = execute (prepare cache job)
