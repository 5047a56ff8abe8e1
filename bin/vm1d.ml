(* vm1d: the batch-optimization daemon. Serves a stream of vm1dp-jobs/1
   request lines — from stdin (default) or a Unix socket — scheduling
   jobs onto the shared domain pool and streaming replies back in
   request order. Immutable artifacts (cell libraries, netlists, input
   placements with their baselines) are cached across jobs for the
   lifetime of the process; see PROTOCOL.md for the wire format and README
   "Running the batch service" for usage. *)

open Cmdliner

let socket_path =
  Arg.(value & opt (some string) None & info [ "socket"; "s" ]
         ~doc:"Listen on a Unix-domain socket at $(docv) instead of serving \
               stdin. Connections are served one at a time, each to EOF; \
               every connection shares the process-wide artifact cache. \
               The socket file is removed on clean shutdown." ~docv:"PATH")

let accept_limit =
  Arg.(value & opt int 0 & info [ "accept-limit" ]
         ~doc:"With --socket: exit after serving $(docv) connections \
               (0 = serve forever). Lets tests and scripts run a bounded \
               daemon." ~docv:"N")

let jobs =
  Arg.(value & opt int 0 & info [ "jobs"; "j" ]
         ~doc:"Size of the shared domain pool (caller + workers) jobs are \
               scheduled onto. 0 picks the recommended domain count. \
               Results are byte-identical for every value." ~docv:"N")

let max_in_flight =
  Arg.(value & opt int 0 & info [ "max-in-flight" ]
         ~doc:"Maximum jobs running or queued at once; the reader blocks \
               on the oldest job beyond this (backpressure). 0 picks \
               2 * jobs." ~docv:"N")

let solver_conv =
  Arg.enum
    (List.map
       (fun m -> (Vm1.Scp_solver.mode_to_string m, m))
       Vm1.Scp_solver.modes)

let solver =
  Arg.(value & opt (some solver_conv) None & info [ "solver" ]
         ~doc:"Default window solver for requests that omit the \"solver\" \
               field: greedy, anneal, or portfolio. A \
               request's own field always wins." ~docv:"MODE")

let trace =
  Arg.(value & opt (some string) None & info [ "trace" ]
         ~doc:"Write a JSON trace of the daemon's whole service period to \
               $(docv) on exit (enables observability for the run)."
         ~docv:"FILE")

let metrics =
  Arg.(value & flag & info [ "metrics" ]
         ~doc:"Print the observability summary tables (serve.* counters, \
               queue-depth gauge, latency histogram) to stderr on exit.")

let admin_socket =
  Arg.(value & opt (some string) None & info [ "admin-socket" ]
         ~doc:"Serve the admin plane on a Unix-domain socket at $(docv): \
               one verb per line (metrics, health, jobs), one JSON reply \
               line each (see PROTOCOL.md, \"The admin plane\"). Runs on \
               its own domain and only reads observability state, so \
               scraping never blocks or perturbs the job pipeline. \
               Enables observability. vm1top renders this endpoint."
         ~docv:"PATH")

let job_log =
  Arg.(value & opt (some string) None & info [ "job-log" ]
         ~doc:"Append one vm1dp-joblog/1 JSON line per completed job to \
               $(docv) (request id, source, solver, queue/execute spans, \
               cache outcomes, QoR digest, error class), flushed per \
               line." ~docv:"FILE")

(* A client that hangs up (EPIPE or ECONNRESET surface as [Sys_error]
   on the channel) ends its own stream: nothing more is read, the
   in-flight jobs drain with their replies dropped, and the caller
   moves on to the next connection. *)
let serve_channel cache ~max_in_flight ~default_solver ~telemetry ic oc =
  let hung_up = ref false in
  Serve.Daemon.serve
    ?max_in_flight
    ?default_solver
    ?telemetry
    cache
    ~next_line:(fun () ->
      if !hung_up then None
      else
        try In_channel.input_line ic
        with Sys_error _ ->
          hung_up := true;
          None)
    ~emit:(fun line ->
      if not !hung_up then
        try
          Out_channel.output_string oc line;
          Out_channel.output_char oc '\n';
          Out_channel.flush oc
        with Sys_error _ -> hung_up := true)
    ()

let add_stats (a : Serve.Daemon.stats) (b : Serve.Daemon.stats) =
  { Serve.Daemon.jobs = a.Serve.Daemon.jobs + b.Serve.Daemon.jobs;
    ok = a.ok + b.ok;
    errors = a.errors + b.errors }

(* The admin accept loop, run on its own Exec.Bg domain. Blocking
   points poll [should_stop] through short select timeouts: closing a
   listening descriptor from another domain does not reliably wake a
   blocked accept, so the loop must never block without a timeout. *)
let admin_loop telemetry path ~should_stop =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind sock (Unix.ADDR_UNIX path)
   with Unix.Unix_error (err, _, _) ->
     Printf.eprintf "vm1d: cannot bind admin socket %s: %s\n%!" path
       (Unix.error_message err);
     exit 1);
  Unix.listen sock 16;
  Printf.eprintf "vm1d: admin plane on %s\n%!" path;
  (* every wake, at most 0.2 s apart, may take a window sample *)
  let readable fd =
    let r =
      match Unix.select [ fd ] [] [] 0.2 with
      | [], _, _ -> false
      | _ -> true
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
    in
    Serve.Telemetry.tick telemetry;
    r
  in
  let serve_conn conn oc =
    (* hand-rolled line reader: In_channel would buffer past the first
       line, and select cannot see a stdlib buffer — pipelined verbs
       would stall until the client hangs up *)
    let pending = Buffer.create 256 in
    let chunk = Bytes.create 4096 in
    let rec next_verb () =
      let s = Buffer.contents pending in
      match String.index_opt s '\n' with
      | Some i ->
        Buffer.clear pending;
        Buffer.add_substring pending s (i + 1) (String.length s - i - 1);
        Some (String.sub s 0 i)
      | None ->
        if should_stop () then None
        else if readable conn then
          match Unix.read conn chunk 0 (Bytes.length chunk) with
          | 0 -> None
          | n ->
            Buffer.add_subbytes pending chunk 0 n;
            next_verb ()
          | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) ->
            next_verb ()
        else next_verb ()
    in
    let rec go () =
      match next_verb () with
      | None -> ()
      | Some verb ->
        Out_channel.output_string oc
          (Obs.Json.to_string (Serve.Telemetry.handle telemetry verb));
        Out_channel.output_char oc '\n';
        Out_channel.flush oc;
        go ()
    in
    go ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      while not (should_stop ()) do
        if readable sock then
          match Unix.accept sock with
          | conn, _ ->
            (* close_out_noerr closes [conn] and drops any reply a
               hung-up client left unflushed *)
            let oc = Unix.out_channel_of_descr conn in
            Fun.protect
              ~finally:(fun () -> close_out_noerr oc)
              (fun () ->
                try serve_conn conn oc with
                | End_of_file | Sys_error _
                | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
                  ())
          | exception Unix.Unix_error _ -> ()
      done)

let serve_socket cache ~max_in_flight ~default_solver ~telemetry ~accept_limit
    path =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind sock (Unix.ADDR_UNIX path)
   with Unix.Unix_error (err, _, _) ->
     Printf.eprintf "vm1d: cannot bind %s: %s\n%!" path
       (Unix.error_message err);
     exit 1);
  Unix.listen sock 16;
  Printf.eprintf "vm1d: listening on %s\n%!" path;
  let totals = ref { Serve.Daemon.jobs = 0; ok = 0; errors = 0 } in
  let served = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      while accept_limit = 0 || !served < accept_limit do
        let conn, _ = Unix.accept sock in
        let ic = Unix.in_channel_of_descr conn in
        let oc = Unix.out_channel_of_descr conn in
        let stats =
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () ->
              serve_channel cache ~max_in_flight ~default_solver ~telemetry ic
                oc)
        in
        totals := add_stats !totals stats;
        incr served
      done;
      !totals)

let run socket_path accept_limit jobs max_in_flight solver trace metrics
    admin_socket job_log =
  (* a client that hangs up before reading its replies must end only its
     own connection (see serve_channel), never the daemon *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* the job log reads only the reply and the raw clock, so it leaves
     observability (and its span history) off *)
  if trace <> None || metrics || admin_socket <> None then
    Obs.set_enabled true;
  if jobs > 0 then Exec.set_jobs jobs;
  let max_in_flight = if max_in_flight > 0 then Some max_in_flight else None in
  let cache = Serve.Cache.create () in
  let telemetry =
    if admin_socket = None && job_log = None then None
    else begin
      let log_oc =
        Option.map
          (fun path ->
            try open_out path
            with Sys_error msg ->
              Printf.eprintf "vm1d: cannot open job log: %s\n%!" msg;
              exit 1)
          job_log
      in
      Some (Serve.Telemetry.create ?job_log:log_oc ())
    end
  in
  let admin =
    match (admin_socket, telemetry) with
    | Some path, Some tel -> Some (Exec.Bg.spawn (admin_loop tel path))
    | _ -> None
  in
  let stats =
    match socket_path with
    | None ->
      serve_channel cache ~max_in_flight ~default_solver:solver ~telemetry
        stdin stdout
    | Some path ->
      serve_socket cache ~max_in_flight ~default_solver:solver ~telemetry
        ~accept_limit path
  in
  Option.iter Exec.Bg.join admin;
  Option.iter Serve.Telemetry.close telemetry;
  Printf.eprintf "vm1d: served %d jobs (%d ok, %d errors)\n%!"
    stats.Serve.Daemon.jobs stats.Serve.Daemon.ok stats.Serve.Daemon.errors;
  (match trace with
   | Some path ->
     (try
        Obs.write_trace path;
        Printf.eprintf "(wrote %s)\n%!" path
      with Sys_error msg ->
        Printf.eprintf "vm1d: cannot write trace: %s\n%!" msg;
        exit 1)
   | None -> ());
  (* stdout is the protocol channel — the summary goes to stderr *)
  if metrics then
    Printf.eprintf "%s%!" (Report.Obs_report.summary (Obs.snapshot ()))

let cmd =
  let doc = "batch-optimization daemon: the vm1dp flow as a service" in
  Cmd.v (Cmd.info "vm1d" ~doc)
    Term.(const run $ socket_path $ accept_limit $ jobs $ max_in_flight
          $ solver $ trace $ metrics $ admin_socket $ job_log)

let () = exit (Cmd.eval cmd)
