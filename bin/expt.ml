(* Experiment driver: regenerates each figure/table of the paper's
   evaluation section (see DESIGN.md section 4 for the index). *)

open Cmdliner

let scale =
  Arg.(value & opt int 16 & info [ "scale" ]
         ~doc:"Design-size divisor vs the paper's instance counts (1 = full). \
               At 16 every design routes DRV-clean at 75 % utilisation in \
               minutes; larger designs (8 and below) take much longer and \
               the biggest testcases develop congestion hotspots.")

let banner name = Printf.printf "=== %s ===\n%!" name

let solver_conv =
  let parse s =
    match Vm1.Scp_solver.mode_of_string s with
    | Some m -> Ok m
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown solver %S (greedy|exact|anneal|auto|portfolio)"
             s))
  in
  let print ppf m =
    Format.pp_print_string ppf (Vm1.Scp_solver.mode_to_string m)
  in
  Arg.conv (parse, print)

let write_csv csv_prefix name header rows =
  match csv_prefix with
  | None -> ()
  | Some prefix ->
    let path = Printf.sprintf "%s%s.csv" prefix name in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (Report.Table.to_csv ~header ~rows));
    Printf.printf "(wrote %s)\n%!" path

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

let run_one scale solver csv_prefix manifest out = function
  | "a1" | "fig5" ->
    banner "ExptA-1 (Fig. 5): window size and perturbation range";
    let points = Report.Expt.Fig5.run ~scale ~mode:solver () in
    print_string (Report.Expt.Fig5.render points);
    write_csv csv_prefix "fig5"
      [ "bw_um"; "lx"; "ly"; "rwl_um"; "runtime_s" ]
      (List.map
         (fun (pt : Report.Expt.Fig5.point) ->
           [ string_of_float pt.bw_um; string_of_int pt.lx;
             string_of_int pt.ly; string_of_float pt.rwl_um;
             string_of_float pt.runtime_s ])
         points)
  | "a2" | "fig6" ->
    banner "ExptA-2 (Fig. 6): alpha sensitivity";
    let points = Report.Expt.Fig6.run ~scale ~mode:solver () in
    print_string (Report.Expt.Fig6.render points);
    write_csv csv_prefix "fig6"
      [ "alpha"; "rwl_um"; "dm1"; "alignments" ]
      (List.map
         (fun (pt : Report.Expt.Fig6.point) ->
           [ string_of_float pt.alpha; string_of_float pt.rwl_um;
             string_of_int pt.dm1; string_of_int pt.alignments ])
         points)
  | "a3" | "fig7" ->
    banner "ExptA-3 (Fig. 7): optimisation sequences";
    let points = Report.Expt.Fig7.run ~scale ~mode:solver () in
    print_string (Report.Expt.Fig7.render points);
    write_csv csv_prefix "fig7"
      [ "sequence"; "rwl_um"; "runtime_s" ]
      (List.map
         (fun (pt : Report.Expt.Fig7.point) ->
           [ string_of_int pt.sequence; string_of_float pt.rwl_um;
             string_of_float pt.runtime_s ])
         points)
  | "b1" ->
    banner "ExptB-1 (Table 2, ClosedM1)";
    print_string
      (Report.Expt.Table2.render
         (Report.Expt.Table2.run ~scale ~mode:solver
            ~archs:[ Pdk.Cell_arch.Closed_m1 ] ()))
  | "b2" ->
    banner "ExptB-2 (Table 2, OpenM1)";
    print_string
      (Report.Expt.Table2.render
         (Report.Expt.Table2.run ~scale ~mode:solver
            ~archs:[ Pdk.Cell_arch.Open_m1 ] ()))
  | "table2" ->
    banner "ExptB (Table 2, both architectures)";
    print_string
      (Report.Expt.Table2.render
         (Report.Expt.Table2.run ~scale ~mode:solver ()))
  | "fig8" ->
    banner "ExptB-1 (Fig. 8): DRVs vs utilisation";
    let points = Report.Expt.Fig8.run ~scale ~mode:solver () in
    print_string (Report.Expt.Fig8.render points);
    write_csv csv_prefix "fig8"
      [ "utilization"; "drvs_init"; "drvs_opt"; "dm1_init"; "dm1_opt" ]
      (List.map
         (fun (pt : Report.Expt.Fig8.point) ->
           [ string_of_float pt.utilization; string_of_int pt.drvs_init;
             string_of_int pt.drvs_opt; string_of_int pt.dm1_init;
             string_of_int pt.dm1_opt ])
         points)
  | "a2-openm1" | "fig6-openm1" ->
    banner "ExptA-2 on OpenM1 (the sweep the paper omitted for space)";
    print_string
      (Report.Expt.Fig6.render
         (Report.Expt.Fig6.run ~scale ~arch:Pdk.Cell_arch.Open_m1
            ~mode:solver ()))
  | "matrix" ->
    banner "Experiment matrix (benchmark-manifest sweep)";
    run_matrix manifest out
  | "ablation" ->
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
  | other -> Printf.eprintf "unknown experiment %S\n" other

let experiments =
  Arg.(value & pos_all string [ "a1"; "a2"; "a3"; "table2"; "fig8" ]
       & info [] ~docv:"EXPT"
           ~doc:"Experiments to run:                a1|a2|a2-openm1|a3|b1|b2|table2|fig8|ablation|matrix.")

let manifest =
  Arg.(value & opt (some file) None & info [ "manifest" ]
         ~doc:"Benchmark manifest (vm1dp-bench-manifest/1 JSON) the                $(b,matrix) experiment sweeps." ~docv:"FILE")

let out =
  Arg.(value & opt (some string) None & info [ "out" ]
         ~doc:"Write the $(b,matrix) report (vm1dp-expt-matrix/1 JSON)                to $(docv)." ~docv:"FILE")

let solver =
  Arg.(value & opt solver_conv `Greedy & info [ "solver" ]
         ~doc:"Window solver for the optimisation passes: greedy, exact, \
               anneal, auto, or portfolio (best of exact, greedy and \
               anneal, with a deterministic winner).")

let csv_prefix =
  Arg.(value & opt (some string) None & info [ "csv" ]
         ~doc:"Also write each experiment's data as PREFIX<expt>.csv.")

let trace =
  Arg.(value & opt (some string) None & info [ "trace" ]
         ~doc:"Write a JSON trace of the whole experiment batch to $(docv),                so runs are comparable across commits." ~docv:"FILE")

let metrics =
  Arg.(value & flag & info [ "metrics" ]
         ~doc:"Print the observability summary tables after the experiments.")

let jobs =
  Arg.(value & opt int 0 & info [ "jobs" ]
         ~doc:"Size of the shared domain pool (caller + workers) for the                parallel phases. 0 picks the recommended domain count.                Results are byte-identical for every value." ~docv:"N")

let run scale solver csv_prefix trace metrics jobs manifest out experiments =
  if trace <> None || metrics then Obs.set_enabled true;
  if jobs > 0 then Exec.set_jobs jobs;
  List.iter (run_one scale solver csv_prefix manifest out) experiments;
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
  let doc = "regenerate the paper's tables and figures" in
  Cmd.v (Cmd.info "expt" ~doc)
    Term.(const run $ scale $ solver $ csv_prefix $ trace $ metrics $ jobs
          $ manifest $ out $ experiments)

let () = exit (Cmd.eval cmd)
