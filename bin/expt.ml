(* Experiment driver: [matrix] sweeps a benchmark manifest — the paper's
   tables and figures are the manifests under experiments/ (see DESIGN.md
   section 4 for the index) — and [ablation] runs the design-choice
   ablations. *)

open Cmdliner

let scale =
  Arg.(value & opt int 16 & info [ "scale" ]
         ~doc:"Design-size divisor vs the paper's instance counts (1 = full) \
               for $(b,ablation); $(b,matrix) takes its scales from the \
               manifest.")

let banner name = Printf.printf "=== %s ===\n%!" name

let run_matrix manifest out =
  match manifest with
  | None ->
    Printf.eprintf "expt: matrix needs --manifest FILE\n";
    exit 1
  | Some path ->
    (match Io.Manifest.load path with
    | Error msg ->
      Printf.eprintf "expt: %s: %s\n" path msg;
      exit 1
    | Ok m ->
      (match Report.Matrix.run m with
      | Error msg ->
        Printf.eprintf "expt: matrix: %s\n" msg;
        exit 1
      | Ok r ->
        print_string (Report.Matrix.render r);
        (match out with
         | Some path ->
           let oc = open_out path in
           Fun.protect
             ~finally:(fun () -> close_out oc)
             (fun () ->
               output_string oc (Obs.Json.to_string (Report.Matrix.to_json r));
               output_char oc '\n');
           Printf.printf "(wrote %s)\n%!" path
         | None -> ())))

let run_one scale manifest out = function
  | `Matrix ->
    banner "Experiment matrix (benchmark-manifest sweep)";
    run_matrix manifest out
  | `Ablation ->
    banner "Ablation: window-solver ladder (greedy/anneal/exact/MILP)";
    print_string
      (Report.Ablation.Solver_ladder.render
         (Report.Ablation.Solver_ladder.run ()));
    banner "Ablation: routing with dM1 disabled";
    print_string (Report.Ablation.No_dm1.render (Report.Ablation.No_dm1.run ~scale ()));
    banner "Ablation: HPWL-only DP baseline vs vertical-M1-aware";
    print_string
      (Report.Ablation.Baseline_dp.render (Report.Ablation.Baseline_dp.run ~scale ()));
    banner "Ablation: congestion-aware objective term (3-layer stack)";
    print_string
      (Report.Ablation.Congestion_term.render
         (Report.Ablation.Congestion_term.run ~scale ()))

let experiments =
  Arg.(non_empty
       & pos_all (enum [ ("matrix", `Matrix); ("ablation", `Ablation) ]) []
       & info [] ~docv:"EXPT" ~doc:"Experiments to run: matrix|ablation.")

let manifest =
  Arg.(value & opt (some file) None & info [ "manifest" ]
         ~doc:"Benchmark manifest (vm1dp-bench-manifest/1 JSON) the                $(b,matrix) experiment sweeps." ~docv:"FILE")

let out =
  Arg.(value & opt (some string) None & info [ "out" ]
         ~doc:"Write the $(b,matrix) report (vm1dp-expt-matrix/1 JSON)                to $(docv)." ~docv:"FILE")

let trace =
  Arg.(value & opt (some string) None & info [ "trace" ]
         ~doc:"Write a JSON trace of the whole experiment batch to $(docv),                so runs are comparable across commits." ~docv:"FILE")

let metrics =
  Arg.(value & flag & info [ "metrics" ]
         ~doc:"Print the observability summary tables after the experiments.")

let jobs =
  Arg.(value & opt int 0 & info [ "jobs" ]
         ~doc:"Size of the shared domain pool (caller + workers) for the                parallel phases. 0 picks the recommended domain count.                Results are byte-identical for every value." ~docv:"N")

let run scale trace metrics jobs manifest out experiments =
  if trace <> None || metrics then Obs.set_enabled true;
  if jobs > 0 then Exec.set_jobs jobs;
  List.iter (run_one scale manifest out) experiments;
  (match trace with
   | Some path ->
     (try
        Obs.write_trace path;
        Printf.printf "(wrote %s)\n%!" path
      with Sys_error msg ->
        Printf.eprintf "expt: cannot write trace: %s\n%!" msg;
        exit 1)
   | None -> ());
  if metrics then Report.Obs_report.print (Obs.snapshot ())

let cmd =
  let doc =
    "run experiment manifests (the paper's tables and figures) and ablations"
  in
  Cmd.v (Cmd.info "expt" ~doc)
    Term.(const run $ scale $ trace $ metrics $ jobs $ manifest $ out
          $ experiments)

let () = exit (Cmd.eval cmd)
