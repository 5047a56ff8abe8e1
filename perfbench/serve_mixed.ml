(* serve-mixed: bin/vm1d --jobs 1 over its Unix-socket transport,
   driven by one closed-loop client that keeps two requests outstanding
   (the next line is written only when a reply arrives). Latency runs
   from line written to reply read.

   The daemon emits a reply once a later request arrives or its input
   ends, and holds at most --max-in-flight jobs past the newest one, so
   the loop runs it with --max-in-flight 1: the oldest of the two
   outstanding jobs runs and is answered when the newer one is read,
   and the newer one waits behind it. One domain, not a pool of 2: on
   this 2-vCPU host the pool made job_p90_ms swing by 37% (interquartile
   range over ten runs) while the host's speed, timed between
   connections, held within 3%. The socket lets the client end its
   input without stopping the daemon: the stream is served over ten
   connections in turn, all sharing the daemon's caches, and the client
   times a reference slice (Common) between them while the daemon is
   idle.

   The stream cycles through a fixed population of job specs: generated
   m0/aes jobs at scale 32 over util, alpha and sequence values, plus
   inline-DEF external jobs whose DEF text is emitted here at set-up
   from seeded netlists. A spec's first occurrence may miss the
   artifact caches (cold); every later one hits them (warm). *)

open Common
module P = Serve.Protocol

let arch = Pdk.Cell_arch.Closed_m1
let scale = 32
let min_jobs = 100
let setups = 5  (* spawn-to-first-reply samples *)
let external_defs = 3
let reply_timeout_s = 60.0

let generated_specs =
  List.concat_map
    (fun design ->
      List.concat_map
        (fun util ->
          List.concat_map
            (fun alpha ->
              List.map
                (fun sequence ->
                  P.generated_job ~id:"" ~scale ~util ?alpha ~sequence design)
                [ 1; 3 ])
            [ None; Some 600.0 ])
        [ 0.70; 0.75; 0.80 ])
    [ Netlist.Designs.M0; Aes ]

(* the set-up probe: the first spec of the population *)
let warmup = List.hd generated_specs

(* External DEFs: placements of seeded m0/aes netlists that no generated
   job uses, written with Io.Def.write. Returns the texts and the time
   each netlist took to generate. *)
let external_texts ~netlist_seed =
  let lib = Pdk.Libgen.generate (Pdk.Tech.default arch) in
  List.split
    (List.init external_defs (fun i ->
         let name = if i mod 2 = 0 then Netlist.Designs.M0 else Aes in
         let design, gen_s =
           timed (fun () ->
               Flows.generate lib name ~scale
                 ~seed:((1000 * (i + 1)) + netlist_seed))
         in
         let p = Report.Flow.prepare_placement ~utilization:0.75 design in
         (Io.Def.write design (Place.Placement.to_def p), gen_s)))

let external_job text =
  {
    P.id = "";
    source = P.External (P.Inline text);
    arch;
    alpha = None;
    sequence = 1;
    solver = None;
    want_trace = false;
  }

(* The stream cycles through one fixed shuffle of the specs, and
   measured job [k] is its entry [k + seed]: the seed sets where the
   stream starts. Replies leave in request order, so a job's latency
   depends on its neighbours in the stream; with a fresh shuffle per
   round, which jobs met moved job_p90_ms by 15% from seed to seed. *)
let stream ~seed (specs : P.job array) =
  let n = Array.length specs in
  let st = Random.State.make [| n |] in
  let order = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  fun k -> order.((((k + seed) mod n) + n) mod n)

(* {1 The daemon process} *)

(* The daemon listens on a Unix socket and serves one connection at a
   time with one shared cache, and exits after [connections] of them. *)
type daemon = {
  pid : int;
  path : string;
  spawned : float;
  mutable reaped : bool;
}

let spawn vm1d ~out_dir ~connections =
  let path =
    Filename.concat out_dir (Printf.sprintf "vm1d-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let spawned = now_s () in
  let pid =
    Unix.create_process vm1d
      [| vm1d; "--socket"; path; "--accept-limit"; string_of_int connections;
         "--jobs"; "1"; "--max-in-flight"; "1" |]
      null Unix.stderr Unix.stderr
  in
  Unix.close null;
  { pid; path; spawned; reaped = false }

let alive d = fst (Unix.waitpid [ Unix.WNOHANG ] d.pid) = 0

(* Waits up to 10 s for the daemon to exit, then kills it; returns a
   problem if it did not exit 0. *)
let finish_daemon d =
  let rec reap tries =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when tries > 0 ->
      Unix.sleepf 0.01;
      reap (tries - 1)
    | 0, _ ->
      Unix.kill d.pid Sys.sigkill;
      snd (Unix.waitpid [] d.pid)
    | _, st -> st
  in
  let exited = reap 1000 in
  d.reaped <- true;
  (try Unix.unlink d.path with Unix.Unix_error _ -> ());
  match exited with
  | Unix.WEXITED 0 -> []
  | Unix.WEXITED c -> [ Printf.sprintf "vm1d exited with code %d" c ]
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
    [ Printf.sprintf "vm1d killed by signal %d" s ]

type conn = {
  fd : Unix.file_descr;
  pending : Buffer.t;
  chunk : Bytes.t;
  mutable writing : bool;
}

(* the next connection, once the daemon listens; None if it died or
   did not listen within [reply_timeout_s] *)
let connect d =
  let deadline = now_s () +. reply_timeout_s in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX d.path) with
    | () ->
      Some { fd; pending = Buffer.create 4096; chunk = Bytes.create 65536;
             writing = true }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when now_s () < deadline && alive d ->
      Unix.close fd;
      Unix.sleepf 0.001;
      go ()
    | exception Unix.Unix_error _ ->
      Unix.close fd;
      None
  in
  go ()

let send c line =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write c.fd b off (Bytes.length b - off))
  in
  go 0

(* the next reply line, or None at end of stream or after
   [reply_timeout_s] without one *)
let rec read_line c =
  let s = Buffer.contents c.pending in
  match String.index_opt s '\n' with
  | Some i ->
    Buffer.clear c.pending;
    Buffer.add_substring c.pending s (i + 1) (String.length s - i - 1);
    Some (String.sub s 0 i)
  | None -> (
    match Unix.select [ c.fd ] [] [] reply_timeout_s with
    | [], _, _ -> None
    | _ -> (
      match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
      | 0 -> None
      | n ->
        Buffer.add_subbytes c.pending c.chunk 0 n;
        read_line c)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line c)

(* Ends the requests: the daemon answers what it still holds, then
   closes the connection. *)
let end_input c =
  if c.writing then begin
    c.writing <- false;
    Unix.shutdown c.fd Unix.SHUTDOWN_SEND
  end

(* Ends the requests and returns every reply line still to come. *)
let close_conn c =
  end_input c;
  let rec rest acc =
    match read_line c with Some l -> rest (l :: acc) | None -> List.rev acc
  in
  let lines = rest [] in
  Unix.close c.fd;
  lines

let line_of id (job : P.job) = P.encode_job { job with P.id }

let parse line =
  match P.parse_reply line with Ok r -> Some r | Error _ -> None

(* spawn until the first reply: one set-up sample *)
let probe_setup ~out_dir vm1d =
  let d = spawn vm1d ~out_dir ~connections:1 in
  Fun.protect ~finally:(fun () -> if not d.reaped then ignore (finish_daemon d))
  @@ fun () ->
  match connect d with
  | None -> (Float.nan, "vm1d does not listen" :: finish_daemon d)
  | Some c ->
    send c (line_of "warmup" warmup);
    end_input c;
    let first = read_line c in
    let sample = now_s () -. d.spawned in
    ignore (close_conn c);
    let problems = finish_daemon d in
    ( sample,
      match Option.bind first parse with
      | Some { P.p_status = "ok"; _ } -> problems
      | _ -> "no ok reply to the set-up probe" :: problems )

(* {1 The closed loop} *)

type answer = {
  spec : int;
  latency_s : float;            (** client side: written to read *)
  reply : P.parsed_reply option;  (** None: missing or unreadable *)
}

type session = {
  answers : answer list;  (** in request order *)
  setup_s : float;
  busy_s : float;         (** summed over the measured connections *)
  daemon_rss_mb : float;
  session_problems : string list;
}

(* The session: one connection with two warm-up jobs, then [segments]
   measured connections with a reference slice before each and after
   the last. On each measured connection the client keeps two requests
   outstanding until its share of [seconds] is used, then ends its
   input and reads the last reply. *)
let segments = 10

let run_session ~vm1d ~out_dir ~seconds ~host ~next_spec (specs : P.job array) =
  let d = spawn vm1d ~out_dir ~connections:(1 + segments) in
  Fun.protect ~finally:(fun () -> if not d.reaped then ignore (finish_daemon d))
  @@ fun () ->
  let problems = ref [] in
  let problem p = problems := p :: !problems in
  let setup_s =
    match connect d with
    | None ->
      problem "vm1d does not listen";
      Float.nan
    | Some c ->
      send c (line_of "warmup" warmup);
      send c (line_of "warmup-2" warmup);
      end_input c;
      let first = read_line c in
      let setup_s = now_s () -. d.spawned in
      let replies = Option.to_list first @ close_conn c in
      if List.length replies <> 2
         || not
              (List.for_all
                 (fun l ->
                   match parse l with
                   | Some { P.p_status = "ok"; _ } -> true
                   | _ -> false)
                 replies)
      then problem "warm-up: no ok replies";
      setup_s
  in
  let answers = ref [] and k = ref 0 in
  let busy = ref 0.0 and daemon_rss_mb = ref 0.0 in
  let answer sent line =
    match Queue.take_opt sent with
    | Some (spec, t_written) ->
      answers :=
        { spec; latency_s = now_s () -. t_written; reply = parse line }
        :: !answers
    | None -> problem "a reply nobody asked for"
  in
  let rec segment i =
    if i <= segments then begin
      slice host;
      match connect d with
      | None -> problem "vm1d does not listen"
      | Some c ->
        let last = i = segments in
        let sent = Queue.create () in  (* (spec, written at), oldest first *)
        let write () =
          let spec = next_spec !k in
          send c (line_of (Printf.sprintf "j%d" !k) specs.(spec));
          Queue.push (spec, now_s ()) sent;
          incr k
        in
        let t0 = now_s () in
        let share = seconds *. float_of_int i /. float_of_int segments in
        let more () =
          !busy +. (now_s () -. t0) < share || (last && !k < min_jobs)
        in
        write ();
        write ();
        let rec loop () =
          match read_line c with
          | None -> ()
          | Some line ->
            answer sent line;
            if c.writing then begin
              if more () then write ()
              else begin
                if last then
                  daemon_rss_mb :=
                    Option.value ~default:0.0
                      (peak_rss_mb (string_of_int d.pid));
                end_input c
              end
            end;
            if not (Queue.is_empty sent) then loop ()
        in
        loop ();
        List.iter (answer sent) (close_conn c);
        busy := !busy +. (now_s () -. t0);
        (* requests the daemon never answered *)
        Queue.iter
          (fun (spec, _) ->
            answers := { spec; latency_s = Float.nan; reply = None } :: !answers)
          sent;
        segment (i + 1)
    end
  in
  segment 1;
  slice host;
  let exit_problems = finish_daemon d in
  { answers = List.rev !answers; setup_s; busy_s = !busy;
    daemon_rss_mb = !daemon_rss_mb;
    session_problems = List.rev !problems @ exit_problems }

(* {1 In-process replay} *)

let result_bytes (r : P.result) = Obs.Json.to_string (P.result_json r)

type replayed = {
  r_spec : int;
  result : P.result option;
  hit : bool;         (** every artifact came from the cache *)
  prepare_ms : float;
  execute_ms : float;
}

(* Replays [specs_in_order] through Serve.Engine with a fresh cache on a
   fresh domain (so the per-domain window caches start cold as in a new
   daemon). With [traced], spans wrap each call and each external DEF is
   parsed once with Io.Def.parse on first sight. *)
let replay ~traced (specs : P.job array) specs_in_order =
  Domain.join
  @@ Domain.spawn (fun () ->
         let cache = Serve.Cache.create () in
         let seen = Hashtbl.create 8 in
         let parse_ms = ref [] in
         let g0 = Gc.quick_stat () in
         let out =
           List.map
             (fun i ->
               let job = { (specs.(i)) with P.id = Printf.sprintf "r%d" i } in
               (match job.P.source with
               | P.External (P.Inline text)
                 when traced && not (Hashtbl.mem seen text) ->
                 Hashtbl.add seen text ();
                 let _, s =
                   timed (fun () ->
                       Obs.with_span "bench.io.def_parse" (fun () ->
                           ignore (Io.Def.parse text)))
                 in
                 parse_ms := (1000.0 *. s) :: !parse_ms
               | _ -> ());
               let prep, prepare_s =
                 timed (fun () ->
                     Obs.with_span "bench.serve.prepare" (fun () ->
                         Serve.Engine.prepare cache job))
               in
               let reply, execute_s =
                 timed (fun () ->
                     Obs.with_span "bench.serve.execute" (fun () ->
                         Serve.Engine.execute prep))
               in
               let result, hit =
                 match reply with
                 | P.Ok { result; artifacts; _ } ->
                   (Some result, List.for_all snd artifacts)
                 | P.Err _ -> (None, false)
               in
               { r_spec = i; result; hit; prepare_ms = 1000.0 *. prepare_s;
                 execute_ms = 1000.0 *. execute_s })
             specs_in_order
         in
         (out, !parse_ms, gc_delta g0 (Gc.quick_stat ())))

(* {1 Checks and metrics} *)

(* One operation per measured job: an error or missing reply, or result
   bytes that differ from the in-process replay of the same spec. *)
let check_answers t answers (truth : (int, string) Hashtbl.t) =
  List.iteri
    (fun k a ->
      record t
        (match a.reply with
        | None -> [ Printf.sprintf "j%d: no reply" k ]
        | Some r when r.P.p_status <> "ok" ->
          [ Printf.sprintf "j%d: error reply %s" k
              (Option.value ~default:"?" r.P.p_error_code) ]
        | Some r when r.P.p_id <> Some (Printf.sprintf "j%d" k) ->
          [ Printf.sprintf "j%d: reply out of order" k ]
        | Some r -> (
          match (r.P.p_result, Hashtbl.find_opt truth a.spec) with
          | Some j, Some bytes when Obs.Json.to_string j = bytes -> []
          | _ -> [ Printf.sprintf "j%d: result differs from the replay" k ])))
    answers

let distinct l = List.sort_uniq compare l

let ok_replies answers =
  List.filter_map
    (fun a ->
      match a.reply with
      | Some ({ P.p_status = "ok"; _ } as r) -> Some (a, r)
      | _ -> None)
    answers

let run ~seed ~netlist_seed ~seconds ~trace ~vm1d ~vm1trace ~out_dir =
  Exec.set_jobs 1;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let t = tally () in
  let texts, gen_samples = external_texts ~netlist_seed in
  let specs = Array.of_list (generated_specs @ List.map external_job texts) in
  let next_spec = stream ~seed specs in
  let host = host () in
  slice host;
  let probes = List.init (setups - 1) (fun _ -> probe_setup ~out_dir vm1d) in
  let s = run_session ~vm1d ~out_dir ~seconds ~host ~next_spec specs in
  let setup_samples = s.setup_s :: List.map fst probes in
  let session_problems =
    s.session_problems @ List.concat_map snd probes
  in
  let n = List.length s.answers in
  (* the replay covers the warm-up spec and every spec served; the
     traced run replays the stream's first [min_jobs] jobs in order *)
  let warm_index = 0 in
  let served = distinct (warm_index :: List.map (fun a -> a.spec) s.answers) in
  let prefix = warm_index :: List.init (min n min_jobs) next_spec in
  let served_replay, _, _ = replay ~traced:false specs served in
  let truth = Hashtbl.create 64 in
  List.iter
    (fun r ->
      match r.result with
      | Some res when not (Hashtbl.mem truth r.r_spec) ->
        Hashtbl.add truth r.r_spec (result_bytes res)
      | _ -> ())
    served_replay;
  check_answers t s.answers truth;
  if session_problems <> [] then record t session_problems;
  (* QoR is summed over the generated specs, which every run serves
     whatever the seed; the external DEFs change with the seed *)
  let generated = List.length generated_specs in
  let distinct_results =
    List.filter_map
      (fun i ->
        List.find_map
          (fun r -> if r.r_spec = i then r.result else None)
          served_replay)
      (List.init generated Fun.id)
  in
  if List.length distinct_results <> generated then
    record t [ "the replay does not cover every generated spec" ];
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 distinct_results in
  let ok = ok_replies s.answers in
  let lat_ms = List.map (fun (a, _) -> 1000.0 *. a.latency_s) ok in
  if not trace then begin
    let daemon_s =
      List.filter_map
        (fun (_, r) -> Option.map (fun ms -> ms /. 1000.0) r.P.p_latency_ms)
        ok
    in
    Printf.printf
      "%d jobs in %.2f s; raw: daemon p50 %.1f ms, client p50 %.1f ms, p90 \
       %.1f ms, set-up %.3f s\n"
      (List.length ok) s.busy_s (1000.0 *. median daemon_s) (median lat_ms)
      (percentile 0.9 lat_ms) (median setup_samples);
    print_slices host;
    finish ~workload:"serve-mixed" ~seed t
      [
        metric "flow_s" "s" (scaled host (median daemon_s));
        metric "job_p50_ms" "ms" (scaled host (median lat_ms));
        metric "job_p90_ms" "ms" (scaled host (percentile 0.9 lat_ms));
        metric "jobs_per_s" "1/s"
          (float_of_int (List.length ok) /. scaled host s.busy_s);
        metric "final_dm1" "count"
          (sum (fun (r : P.result) -> float_of_int r.final.Report.Flow.dm1));
        metric "final_via12" "count"
          (sum (fun (r : P.result) -> float_of_int r.final.Report.Flow.via12));
        metric "final_rwl_um" "um"
          (sum (fun (r : P.result) -> r.final.Report.Flow.rwl_um));
        metric "setup_s" "s" (scaled host (median setup_samples));
        metric "peak_rss_mb" "MiB" s.daemon_rss_mb;
      ]
  end
  else begin
    (* the stream prefix, untraced then traced: the time difference is
       the tracing overhead *)
    let (untraced, _, _), plain_s =
      timed (fun () -> replay ~traced:false specs prefix)
    in
    Obs.set_enabled true;
    Obs.reset ();
    let (traced, parse_ms, (minor_words, major_collections)), traced_s =
      timed (fun () -> replay ~traced:true specs prefix)
    in
    Obs.set_enabled false;
    let snap = Obs.snapshot () in
    let path =
      Filename.concat out_dir (Printf.sprintf "serve-mixed-seed%d.trace.json" seed)
    in
    let trace_problems = write_and_check_trace ~vm1trace path in
    let replay_problems =
      List.filter_map
        (fun r ->
          match r.result with
          | Some res when Hashtbl.find_opt truth r.r_spec = Some (result_bytes res) -> None
          | _ -> Some (Printf.sprintf "replay of spec %d differs" r.r_spec))
        (untraced @ traced)
    in
    if trace_problems @ replay_problems <> [] then record t (trace_problems @ replay_problems);
    let l = Layers.of_snapshot snap in
    let lookups = List.concat_map (fun (_, r) -> r.P.p_cache) ok in
    let cold = List.filter (fun (_, r) -> List.exists (fun (_, h) -> not h) r.P.p_cache) ok in
    finish ~workload:"serve-mixed" ~seed t
      (Layer_metrics.metrics l
         {
           Layer_metrics.none with
           netlist_generate_s = median gen_samples;
           place_global_s = Layers.total_s l "place.global";
           route_route_s = Layers.total_s l "route";
           route_metrics_s = Layers.total_s l "route.metrics";
           vm1_opt_s = Layers.total_s l "vm1opt.run";
           sta_analyze_s = Layers.total_s l "sta.analyze";
           serve_prepare_hit_ms =
             median (List.filter_map (fun r -> if r.hit then Some r.prepare_ms else None) traced);
           serve_prepare_miss_ms =
             median (List.filter_map (fun r -> if r.hit then None else Some r.prepare_ms) traced);
           serve_execute_ms = median (List.map (fun r -> r.execute_ms) traced);
           serve_queue_ms =
             median
               (List.filter_map
                  (fun (a, r) ->
                    Option.map (fun ms -> (1000.0 *. a.latency_s) -. ms) r.P.p_latency_ms)
                  ok);
           serve_cache_hit_frac =
             ratio (float_of_int (List.length (List.filter snd lookups)))
               (float_of_int (List.length lookups));
           serve_cold_frac =
             ratio (float_of_int (List.length cold)) (float_of_int (List.length ok));
           serve_errors = float_of_int (List.length s.answers - List.length ok);
           io_def_parse_ms = median parse_ms;
           minor_words;
           major_collections;
           overhead_s = traced_s -. plain_s;
           final_drvs =
             sum (fun (r : P.result) -> float_of_int r.final.Report.Flow.drvs);
         })
  end
