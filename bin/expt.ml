(* Experiment driver: sweeps a benchmark manifest through the flow. The
   paper's tables and figures, and the ablations, are the manifests under
   experiments/ (see DESIGN.md section 4 for the index). *)

open Cmdliner

(* Sys_error messages from open_* already lead with the path *)
let fail path msg =
  let prefix = path ^ ": " in
  let msg =
    if String.starts_with ~prefix msg then
      String.sub msg (String.length prefix)
        (String.length msg - String.length prefix)
    else msg
  in
  Printf.eprintf "expt: %s: %s\n%!" path msg;
  exit 1

let manifest =
  Arg.(required & opt (some file) None & info [ "manifest" ]
         ~doc:"Benchmark manifest (vm1dp-bench-manifest/1 JSON) to sweep."
         ~docv:"FILE")

let out =
  Arg.(value & opt (some string) None & info [ "out" ]
         ~doc:"Write the report (vm1dp-expt-matrix/1 JSON) to $(docv)."
         ~docv:"FILE")

let trace =
  Arg.(value & opt (some string) None & info [ "trace" ]
         ~doc:"Write a JSON trace of the whole sweep to $(docv), so runs                are comparable across commits." ~docv:"FILE")

let metrics =
  Arg.(value & flag & info [ "metrics" ]
         ~doc:"Print the observability summary tables after the sweep.")

let jobs =
  Arg.(value & opt int 0 & info [ "jobs" ]
         ~doc:"Size of the shared domain pool (caller + workers) for the                parallel phases. 0 picks the recommended domain count.                Results are byte-identical for every value." ~docv:"N")

let run trace metrics jobs path out =
  if trace <> None || metrics then Obs.set_enabled true;
  if jobs > 0 then Exec.set_jobs jobs;
  let m =
    match Io.Manifest.load path with
    | Ok m -> m
    | Error msg -> fail path msg
    | exception Sys_error msg -> fail path msg
  in
  (* open the report file before the sweep, so a bad --out fails fast *)
  let oc =
    Option.map
      (fun p -> try (p, open_out p) with Sys_error msg -> fail p msg)
      out
  in
  (match Report.Matrix.run m with
  | Error msg ->
    Option.iter (fun (p, oc) -> close_out oc; Sys.remove p) oc;
    fail path msg
  | Ok r ->
    print_string (Report.Matrix.render r);
    Option.iter
      (fun (p, oc) ->
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            output_string oc (Obs.Json.to_string (Report.Matrix.to_json r));
            output_char oc '\n');
        Printf.printf "(wrote %s)\n%!" p)
      oc);
  (match trace with
   | Some p ->
     (try Obs.write_trace p with Sys_error msg -> fail p msg);
     Printf.printf "(wrote %s)\n%!" p
   | None -> ());
  if metrics then Report.Obs_report.print (Obs.snapshot ())

let cmd =
  let doc =
    "run an experiment manifest (the paper's tables, figures and ablations)"
  in
  Cmd.v (Cmd.info "expt" ~doc)
    Term.(const run $ trace $ metrics $ jobs $ manifest $ out)

let () = exit (Cmd.eval cmd)
