(* End-to-end smoke for the vm1d admin plane (@telemetry-smoke).

   Usage: test_telemetry_smoke.exe VM1D.exe JOBS.txt GOLDEN.txt

   Two daemon runs over the same job stream:

   - an instrumented run ([--admin-socket] + [--job-log]) that is
     scraped mid-stream: after the first reply the admin socket must
     answer [metrics], [health] and [jobs] with one JSON document each,
     every document's ["schema"] tag must round-trip through
     [Obs.Schemas.of_string], and the metrics/health payloads must be
     coherent (ready, at least one job counted, cumulatively and in
     the 10 s window);
   - a plain run with no admin plane at all;
   - a run whose first client sends the stream five times and hangs up
     without reading a reply; the daemon must keep serving the second
     client and exit 0.

   The ["result"] member of every reply must be byte-identical across
   the runs — the scrape-does-not-perturb contract of
   ARCHITECTURE.md, checked here across real processes and sockets.

   Finally the job log written by the instrumented run is compared
   against the committed golden with the two wall-clock fields
   ([queue_ms], [execute_ms]) masked: everything else in a
   vm1dp-joblog/1 record is deterministic for a fixed job stream. *)

module J = Obs.Json

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> close_in ic; List.rev acc
  in
  go []

(* --- tiny socket client ------------------------------------------- *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let send oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let wait_for_socket path =
  let deadline = Unix.gettimeofday () +. 30.0 in
  while not (Sys.file_exists path) do
    if Unix.gettimeofday () > deadline then
      die "telemetry-smoke: %s never appeared" path;
    Unix.sleepf 0.05
  done

let spawn_daemon vm1d args =
  Unix.create_process vm1d
    (Array.of_list (vm1d :: args))
    Unix.stdin Unix.stdout Unix.stderr

let reap pid what =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED c -> die "telemetry-smoke: %s exited %d" what c
  | _, _ -> die "telemetry-smoke: %s killed by signal" what

(* --- JSON helpers -------------------------------------------------- *)

let parse_doc what line =
  match J.parse line with
  | Ok j -> j
  | Error msg -> die "telemetry-smoke: %s is not JSON (%s): %s" what msg line

let schema_tag what j =
  match J.member "schema" j with
  | Some (J.Str s) -> s
  | _ -> die "telemetry-smoke: %s has no \"schema\" field" what

(* Every admin document's schema tag must round-trip through the
   central registry — the contract the @telemetry-smoke alias exists to
   pin down. *)
let check_schema_roundtrip what j expected =
  let s = schema_tag what j in
  if not (String.equal s expected) then
    die "telemetry-smoke: %s schema %S, wanted %S" what s expected;
  match Obs.Schemas.of_string s with
  | Some id when String.equal (Obs.Schemas.to_string id) s -> ()
  | _ -> die "telemetry-smoke: %s schema %S fails Obs.Schemas round-trip" what s

let result_member what line =
  let j = parse_doc what line in
  match J.member "result" j with
  | Some r -> J.to_string r
  | None -> (
    (* error replies carry no result; compare their code instead *)
    match J.member "error" j with
    | Some e -> "err:" ^ J.to_string e
    | None -> die "telemetry-smoke: %s has neither result nor error" what)

let member_exn what key j =
  match J.member key j with
  | Some v -> v
  | None -> die "telemetry-smoke: %s missing %S" what key

(* --- the two runs --------------------------------------------------- *)

(* With --max-in-flight 1 the daemon flushes the oldest reply as soon
   as a second job is queued behind it, so the client can pipeline:
   send two jobs, read the first reply, scrape, send the rest, signal
   EOF with shutdown(SEND) and drain the remaining replies. A strict
   send-one/read-one client would deadlock — the reader only flushes on
   backpressure or EOF (PROTOCOL.md, "Flow control"). *)
let run_admin vm1d jobs ~spath ~apath ~jlog =
  let pid =
    spawn_daemon vm1d
      [
        "--socket"; spath; "--admin-socket"; apath; "--job-log"; jlog;
        "--accept-limit"; "1"; "--jobs"; "2"; "--max-in-flight"; "1";
      ]
  in
  wait_for_socket spath;
  wait_for_socket apath;
  let fd, ic, oc = connect spath in
  (* two jobs in, first reply out, then scrape mid-stream: the admin
     plane must answer while the job connection is open and the stream
     unfinished *)
  let j1, j2, rest =
    match jobs with
    | a :: b :: r -> (a, b, r)
    | _ -> die "telemetry-smoke: job stream needs at least two jobs"
  in
  send oc j1;
  send oc j2;
  let replies = ref [ input_line ic ] in
  let afd, aic, aoc = connect apath in
  let scrape verb =
    send aoc verb;
    parse_doc (Printf.sprintf "admin %s reply" verb) (input_line aic)
  in
  let m = scrape "metrics" in
  check_schema_roundtrip "metrics" m Obs.Schemas.metrics;
  let cum = member_exn "metrics" "cumulative" m in
  (match J.member "serve.jobs" (member_exn "metrics.cumulative" "counters" cum) with
  | Some (J.Int n) when n >= 1 -> ()
  | _ -> die "telemetry-smoke: metrics counted no serve.jobs after a reply");
  (* the 10 s window differences the admin loop's samples: after a
     reply it must count the job, proving the real loop feeds them *)
  let w10 =
    match member_exn "metrics" "windows" m with
    | J.List ws -> (
      match
        List.find_opt (fun w -> J.member "horizon_s" w = Some (J.Int 10)) ws
      with
      | Some w -> w
      | None -> die "telemetry-smoke: metrics carries no 10 s window")
    | _ -> die "telemetry-smoke: metrics carries no windowed views"
  in
  (match J.member "serve.jobs" (member_exn "metrics.windows" "counters" w10) with
  | Some (J.Int n) when n >= 1 -> ()
  | _ -> die "telemetry-smoke: the 10 s window counted no serve.jobs");
  let h = scrape "health" in
  check_schema_roundtrip "health" h Obs.Schemas.health;
  (match member_exn "health" "ready" h with
  | J.Bool true -> ()
  | _ -> die "telemetry-smoke: health not ready");
  let jd = scrape "jobs" in
  check_schema_roundtrip "jobs" jd Obs.Schemas.joblog;
  ignore aic;
  (try Unix.close afd with Unix.Unix_error _ -> ());
  List.iter (send oc) rest;
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  for _ = 1 to List.length jobs - 1 do
    replies := input_line ic :: !replies
  done;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  reap pid "instrumented vm1d";
  List.rev !replies

let run_plain vm1d jobs ~spath =
  let pid =
    spawn_daemon vm1d
      [
        "--socket"; spath; "--accept-limit"; "1"; "--jobs"; "2";
        "--max-in-flight"; "1";
      ]
  in
  wait_for_socket spath;
  let fd, ic, oc = connect spath in
  List.iter (send oc) jobs;
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let replies = List.map (fun _ -> input_line ic) jobs in
  (try Unix.close fd with Unix.Unix_error _ -> ());
  reap pid "plain vm1d";
  replies

(* The first connection writes the stream five times and closes without
   reading, so the daemon's replies hit a closed socket (EPIPE); that
   must end only that connection. The second is served like [run_plain]. *)
let run_hangup vm1d jobs ~spath =
  let pid =
    spawn_daemon vm1d
      [
        "--socket"; spath; "--accept-limit"; "2"; "--jobs"; "2";
        "--max-in-flight"; "1";
      ]
  in
  (* ignored only after the spawn, which would pass it on to the daemon:
     a daemon that dies must fail this run with a message, not kill it *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  wait_for_socket spath;
  let fd, _, oc = connect spath in
  for _ = 1 to 5 do
    List.iter (send oc) jobs
  done;
  Unix.close fd;
  let replies =
    try
      let fd, ic, oc = connect spath in
      List.iter (send oc) jobs;
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let replies = List.map (fun _ -> input_line ic) jobs in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      replies
    with End_of_file | Sys_error _ | Unix.Unix_error _ ->
      die "telemetry-smoke: vm1d dropped the client after an early hang-up"
  in
  reap pid "vm1d after a client hang-up";
  replies

(* --- joblog golden --------------------------------------------------- *)

let mask_wallclock line =
  Str.global_replace
    (Str.regexp {|"\(queue_ms\|execute_ms\)": *-?[0-9][0-9.eE+-]*|})
    {|"\1":0|} line

let check_joblog ~jlog ~golden =
  let got = List.map mask_wallclock (read_lines jlog)
  and want = List.map mask_wallclock (read_lines golden) in
  if List.length got <> List.length want then
    die "telemetry-smoke: job log has %d records, golden %d"
      (List.length got) (List.length want);
  List.iteri
    (fun i (g, w) ->
      if not (String.equal g w) then
        die "telemetry-smoke: job log record %d differs from golden:\n  got  %s\n  want %s"
          (i + 1) g w)
    (List.combine got want)

(* --- main ------------------------------------------------------------ *)

let () =
  let vm1d, jobs_file, golden =
    match Sys.argv with
    | [| _; a; b; c |] -> (a, b, c)
    | _ -> die "usage: test_telemetry_smoke.exe VM1D.exe JOBS.txt GOLDEN.txt"
  in
  (* fail loudly rather than hang CI if a socket read deadlocks *)
  ignore (Unix.alarm 120);
  let jobs = read_lines jobs_file in
  let tmp = Filename.get_temp_dir_name () in
  (* AF_UNIX paths are length-limited (~107 bytes), so the sockets live
     under the system temp dir, not the (deeply nested) dune sandbox *)
  let pid = Unix.getpid () in
  let spath = Filename.concat tmp (Printf.sprintf "vm1ts%d-s.sock" pid)
  and apath = Filename.concat tmp (Printf.sprintf "vm1ts%d-a.sock" pid)
  and ppath = Filename.concat tmp (Printf.sprintf "vm1ts%d-p.sock" pid)
  and hpath = Filename.concat tmp (Printf.sprintf "vm1ts%d-h.sock" pid) in
  let jlog = "telemetry_smoke_joblog.txt" in
  let cleanup () =
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      [ spath; apath; ppath; hpath ]
  in
  Fun.protect ~finally:cleanup (fun () ->
      let scraped = run_admin vm1d jobs ~spath ~apath ~jlog in
      let plain = run_plain vm1d jobs ~spath:ppath in
      let hangup = run_hangup vm1d jobs ~spath:hpath in
      List.iter
        (fun (run, replies) ->
          if List.length replies <> List.length plain then
            die "telemetry-smoke: %d replies %s, %d plain"
              (List.length replies) run (List.length plain);
          List.iteri
            (fun i (a, b) ->
              let what = Printf.sprintf "reply %d" (i + 1) in
              let ra = result_member (what ^ " " ^ run) a
              and rb = result_member (what ^ " (plain)") b in
              if not (String.equal ra rb) then
                die
                  "telemetry-smoke: %s result differs %s:\n  %s\n  plain %s"
                  what run ra rb)
            (List.combine replies plain))
        [ ("with the admin plane", scraped); ("after a hang-up", hangup) ];
      check_joblog ~jlog ~golden;
      Printf.printf
        "telemetry smoke OK: %d byte-identical replies in three runs, 3 \
         admin verbs validated, %d job-log records match golden, daemon \
         survived a client hang-up\n"
        (List.length scraped)
        (List.length (read_lines jlog)))
