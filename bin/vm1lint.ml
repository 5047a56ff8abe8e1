(* vm1lint: determinism / allocation analyzer over this repo's OCaml
   sources. See lib/lint/lint.mli and README "Static analysis". *)

let default_paths = [ "lib"; "bin"; "bench"; "test"; "examples" ]

let run paths json rules_only baseline_file update_baseline explain
    fail_stale =
  if rules_only then begin
    List.iter
      (fun (r : Lint.rule) -> Printf.printf "%-18s %s\n" r.name r.summary)
      Lint.rules;
    0
  end
  else begin
    let paths = if paths = [] then default_paths else paths in
    let paths = List.filter Sys.file_exists paths in
    match
      match baseline_file with
      | None -> Ok Lint.empty_baseline
      | Some f when update_baseline && not (Sys.file_exists f) ->
        (* bootstrap: --update-baseline may create the file *)
        Ok Lint.empty_baseline
      | Some f -> Lint.load_baseline f
    with
    | Error msg ->
      prerr_endline ("vm1lint: cannot load baseline: " ^ msg);
      2
    | Ok baseline ->
      let run = Lint.run_paths ~baseline paths in
      if update_baseline then begin
        match baseline_file with
        | None ->
          prerr_endline "vm1lint: --update-baseline requires --baseline";
          2
        | Some f ->
          Lint.save_baseline f run;
          Printf.printf
            "vm1lint: baseline %s updated (%d entries, %d were new, %d \
             stale removed)\n"
            f
            (List.length (Lint.baseline_entries run))
            (Lint.count run Lint.Active)
            (List.length run.Lint.stale);
          0
      end
      else begin
        if json then print_endline (Obs.Json.to_string (Lint.to_json run))
        else Lint.pp_human ~explain Format.std_formatter run;
        if Lint.active run > 0 then 1
        else if fail_stale && run.Lint.stale <> [] then 1
        else 0
      end
  end

open Cmdliner

let paths_arg =
  let doc =
    "Files or directories to lint. Defaults to lib bin bench test \
     examples."
  in
  Arg.(value & pos_all string [] & info [] ~docv:"PATH" ~doc)

let json_arg =
  let doc = "Emit the machine-readable report (schema vm1dp-lint/2)." in
  Arg.(value & flag & info [ "json" ] ~doc)

let rules_arg =
  let doc = "Print the rule list, then exit." in
  Arg.(value & flag & info [ "rules" ] ~doc)

let baseline_arg =
  let doc =
    "Ratchet baseline file (vm1dp-lint-baseline/1): findings whose \
     fingerprint it lists are reported as baselined debt and do not \
     fail the lint; anything new still does."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "baseline" ] ~docv:"FILE" ~doc)

let update_arg =
  let doc =
    "Rewrite the --baseline file from this run's findings (current debt \
     becomes the new baseline; stale entries are dropped)."
  in
  Arg.(value & flag & info [ "update-baseline" ] ~doc)

let explain_arg =
  let doc =
    "With the human report, print each finding's fingerprint and \
     taint-chain witness (the call path from the flagged function to \
     the offending primitive)."
  in
  Arg.(value & flag & info [ "explain" ] ~doc)

let fail_stale_arg =
  let doc =
    "Also exit nonzero when the baseline contains entries that no \
     longer fire — fixed debt must be removed from the baseline (the \
     @lint-ratchet gate)."
  in
  Arg.(value & flag & info [ "fail-stale" ] ~doc)

let cmd =
  let doc =
    "determinism and allocation analyzer for the vm1dp sources"
  in
  Cmd.v
    (Cmd.info "vm1lint" ~doc)
    Term.(
      const run $ paths_arg $ json_arg $ rules_arg $ baseline_arg
      $ update_arg $ explain_arg $ fail_stale_arg)

let () = exit (Cmd.eval' cmd)
