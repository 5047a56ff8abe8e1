(* perfbench: the seeded end-to-end benchmark of the Table-2 flow and
   the vm1d daemon.

     perfbench --workload flow-congested|flow-optimize|serve-mixed
               --seed N --seconds S --trace 0|1
               --vm1d PATH --vm1trace PATH [--out-dir DIR]

   Untraced runs (--trace 0) print the end-to-end metrics; traced runs
   (--trace 1) print the per-layer metrics and write a vm1dp-trace/1
   file to --out-dir. The last line of stdout is the result object. *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 in
  let trace = ref 0 and vm1d = ref "" and vm1trace = ref "" in
  let netlist_seed = ref 0 and out_dir = ref ".perfbench" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N order of the serve-mixed stream");
      ( "--netlist-seed",
        Arg.Set_int netlist_seed,
        "K netlists of the flows and of the serve-mixed inline DEFs (0 = \
         Designs.make, 1 = hold-out)" );
      ("--seconds", Arg.Set_float seconds, "S measured time of an untraced run");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--vm1d", Arg.Set_string vm1d, "PATH daemon executable");
      ("--vm1trace", Arg.Set_string vm1trace, "PATH trace analyser executable");
      ( "--out-dir",
        Arg.Set_string out_dir,
        "DIR for traces and the serve-mixed daemon's socket" );
      ( "--slice",
        Arg.Unit
          (fun () ->
            let chain = Common.chain () in
            Printf.printf "%.17g\n"
              (snd (Common.timed (fun () -> Common.slice_work chain)));
            exit 0),
        " time one reference slice (see Common) and exit" );
    ]
  in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let trace = !trace = 1 in
  if not (Sys.file_exists !out_dir) then Sys.mkdir !out_dir 0o755;
  let seed = !seed and netlist_seed = !netlist_seed in
  let seconds = !seconds and out_dir = !out_dir in
  let vm1trace = !vm1trace in
  match !workload with
  | "flow-congested" ->
    Flows.run Flows.congested ~seed ~netlist_seed ~seconds ~trace ~vm1trace ~out_dir
  | "flow-optimize" ->
    Flows.run Flows.optimize ~seed ~netlist_seed ~seconds ~trace ~vm1trace ~out_dir
  | "serve-mixed" ->
    Serve_mixed.run ~seed ~netlist_seed ~seconds ~trace ~vm1d:!vm1d ~vm1trace ~out_dir
  | w ->
    Printf.eprintf "perfbench: unknown workload %S\n%s\n" w usage;
    exit 2
