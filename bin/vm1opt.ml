(* Command-line driver for the full flow on one design: generate, place,
   route, evaluate, optimise, re-route, evaluate, and report the Table-2
   row. Optionally dumps before/after placements in the DEF-like format. *)

open Cmdliner

let design_conv =
  let parse s =
    match Netlist.Designs.of_string s with
    | Some d -> Ok d
    | None -> Error (`Msg (Printf.sprintf "unknown design %S (m0|aes|jpeg|vga)" s))
  in
  let print ppf d = Format.pp_print_string ppf (Netlist.Designs.to_string d) in
  Arg.conv (parse, print)

let arch_conv =
  let parse s =
    match Pdk.Cell_arch.of_string s with
    | Some a -> Ok a
    | None ->
      Error (`Msg (Printf.sprintf "unknown arch %S (closedm1|openm1|conv12)" s))
  in
  Arg.conv (parse, Pdk.Cell_arch.pp)

let design =
  Arg.(value & opt design_conv Netlist.Designs.Aes & info [ "design"; "d" ]
         ~doc:"Design: m0, aes, jpeg or vga.")

let arch =
  Arg.(value & opt arch_conv Pdk.Cell_arch.Closed_m1 & info [ "arch"; "a" ]
         ~doc:"Cell architecture: closedm1, openm1 or conv12.")

let scale =
  Arg.(value & opt int 8 & info [ "scale" ]
         ~doc:"Design-size divisor vs the paper's instance counts (1 = full).")

let utilization =
  Arg.(value & opt float 0.75 & info [ "util" ] ~doc:"Placement utilisation.")

let alpha =
  Arg.(value & opt (some float) None & info [ "alpha" ]
         ~doc:"Override the alignment weight alpha.")

let sequence =
  Arg.(value & opt int 1 & info [ "sequence" ]
         ~doc:"Optimisation sequence 1-5 (ExptA-3).")

let solver_conv =
  Arg.enum
    (List.map
       (fun m -> (Vm1.Scp_solver.mode_to_string m, m))
       Vm1.Scp_solver.modes)

let solver =
  Arg.(value & opt solver_conv `Greedy & info [ "solver" ]
         ~doc:"Window solver: greedy, anneal, or portfolio (best of \
               exact/greedy/anneal with a deterministic winner, exact \
               only on windows small enough for it; byte-identical \
               across --jobs).")

let dump_prefix =
  Arg.(value & opt (some string) None & info [ "dump" ]
         ~doc:"Write PREFIX.init.def and PREFIX.opt.def placement dumps.")

let svg_prefix =
  Arg.(value & opt (some string) None & info [ "svg" ]
         ~doc:"Write PREFIX.{placement,routed,congestion}.svg of the final                layout.")

let parallel =
  Arg.(value & flag & info [ "parallel" ]
         ~doc:"Solve diagonally-independent windows on multiple domains                (the paper's distributable optimisation); results are                identical to the sequential run.")

let jobs =
  Arg.(value & opt int 0 & info [ "jobs"; "j" ]
         ~doc:"Size of the shared domain pool used by --parallel (caller +                workers). 0 picks the recommended domain count. Results                are byte-identical for every value." ~docv:"N")

let trace =
  Arg.(value & opt (some string) None & info [ "trace" ]
         ~doc:"Write a JSON trace (spans, counters, gauges, histograms) of                the run to $(docv). Instrumentation never changes the                placement result." ~docv:"FILE")

let metrics =
  Arg.(value & flag & info [ "metrics" ]
         ~doc:"Print the observability summary tables (per-span timing,                counters, gauges) after the run.")

let check =
  Arg.(value & flag & info [ "check" ]
         ~doc:"After optimising, run the flow sanitizer (lib/check): design                and placement legality, window diagonal-independence,                objective recount, routing-result re-verification, and MILP                feasibility re-verification on a sample window. Non-zero exit on any violation.")

let run design arch scale utilization alpha sequence solver dump_prefix
    svg_prefix parallel jobs trace metrics check =
  if trace <> None || metrics then Obs.set_enabled true;
  if jobs > 0 then Exec.set_jobs jobs;
  let p = Report.Flow.prepare ~scale ~utilization design arch in
  let params =
    let base = Vm1.Params.default p.Place.Placement.tech in
    match alpha with
    | Some a -> { base with Vm1.Params.alpha = a }
    | None -> base
  in
  Printf.printf "%s\n%!" (Netlist.Design.stats p.Place.Placement.design);
  (match dump_prefix with
   | Some prefix ->
     Io.Def.write_file (prefix ^ ".init.def") p.design
       (Place.Placement.to_def p)
   | None -> ());
  let config =
    { Vm1.Vm1_opt.default_config with
      Vm1.Vm1_opt.sequence = Vm1.Params.sequence sequence;
      mode = solver;
      parallel }
  in
  let comparison = Report.Flow.run_comparison ~config ~params p in
  (match dump_prefix with
   | Some prefix ->
     Io.Def.write_file (prefix ^ ".opt.def") p.design
       (Place.Placement.to_def p)
   | None -> ());
  (match svg_prefix with
   | Some prefix ->
     let r = Route.Router.route p in
     Report.Svg.write_file (prefix ^ ".placement.svg") (Report.Svg.placement p);
     Report.Svg.write_file (prefix ^ ".routed.svg") (Report.Svg.routed r);
     Report.Svg.write_file (prefix ^ ".congestion.svg") (Report.Svg.congestion r)
   | None -> ());
  print_string (Report.Expt.Table2.render [ comparison ]);
  (match trace with
   | Some path ->
     (try
        Obs.write_trace path;
        Printf.printf "(wrote %s)\n%!" path
      with Sys_error msg ->
        Printf.eprintf "vm1opt: cannot write trace: %s\n%!" msg;
        exit 1)
   | None -> ());
  if metrics then Report.Obs_report.print (Obs.snapshot ());
  if check then begin
    print_endline "flow sanitizer:";
    let findings = Check.flow params p in
    Check.pp_findings Format.std_formatter findings;
    if not (Check.ok findings) then exit 1
  end

let cmd =
  let doc = "vertical M1 routing-aware detailed placement, end to end" in
  Cmd.v (Cmd.info "vm1opt" ~doc)
    Term.(const run $ design $ arch $ scale $ utilization $ alpha $ sequence
          $ solver $ dump_prefix $ svg_prefix $ parallel $ jobs $ trace
          $ metrics $ check)

let () = exit (Cmd.eval cmd)
