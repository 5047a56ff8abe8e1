(* vm1top: live report over a vm1d admin endpoint. Polls the admin
   socket's `metrics` (and `health`) verbs — or reads a saved
   vm1dp-metrics/1 file — and renders throughput, latency percentiles,
   cache hit rates, per-stage span rates and the allocation gauges.
   One-shot by default; --watch refreshes in place. See README
   "Operating the daemon". *)

open Cmdliner
module J = Obs.Json

let socket_path =
  Arg.(value & opt (some string) None & info [ "socket"; "s" ]
         ~doc:"Poll the vm1d admin socket at $(docv) (the daemon's \
               --admin-socket path)." ~docv:"PATH")

let from_file =
  Arg.(value & opt (some string) None & info [ "from" ]
         ~doc:"Render a saved vm1dp-metrics/1 document from $(docv) \
               instead of polling a socket (no health line, no rates)."
         ~docv:"FILE")

let watch =
  Arg.(value & opt float 0.0 & info [ "watch"; "w" ]
         ~doc:"Refresh every $(docv) seconds until interrupted \
               (0 = render once and exit). Socket mode only." ~docv:"SECS")

let top_spans =
  Arg.(value & opt int 8 & info [ "spans" ]
         ~doc:"Show the $(docv) busiest span names (0 hides the table)."
         ~docv:"N")

(* --- JSON access --- *)

let mem path j =
  List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some j) path

let num = function
  | Some (J.Int i) -> Some (float_of_int i)
  | Some (J.Float f) -> Some f
  | _ -> None

let fnum path j = num (mem path j)
let inum path j = match mem path j with Some (J.Int i) -> Some i | _ -> None

let fmt_opt fmt = function Some v -> Printf.sprintf fmt v | None -> "-"

(* --- data sources --- *)

let scrape path verbs =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      (try Unix.connect sock (Unix.ADDR_UNIX path)
       with Unix.Unix_error (err, _, _) ->
         Printf.eprintf "vm1top: cannot connect to %s: %s\n%!" path
           (Unix.error_message err);
         exit 1);
      let ic = Unix.in_channel_of_descr sock in
      let oc = Unix.out_channel_of_descr sock in
      List.map
        (fun verb ->
          Out_channel.output_string oc (verb ^ "\n");
          Out_channel.flush oc;
          match In_channel.input_line ic with
          | None ->
            Printf.eprintf "vm1top: admin endpoint closed mid-scrape\n%!";
            exit 1
          | Some line -> (
            match J.parse line with
            | Ok j -> j
            | Error e ->
              Printf.eprintf "vm1top: bad admin reply: %s\n%!" e;
              exit 1))
        verbs)

let load_file path =
  let text = In_channel.with_open_text path In_channel.input_all in
  match J.parse text with
  | Ok j -> j
  | Error e ->
    Printf.eprintf "vm1top: %s: %s\n%!" path e;
    exit 1

(* --- rendering --- *)

let buf_addf b fmt = Printf.ksprintf (Buffer.add_string b) fmt

let window_with_horizon h metrics =
  match mem [ "windows" ] metrics with
  | Some (J.List ws) ->
    List.find_opt (fun w -> inum [ "horizon_s" ] w = Some h) ws
  | _ -> None

let latency_line label node =
  match node with
  | Some n when inum [ "count" ] n <> Some 0 ->
    Printf.sprintf "  latency ms (%s): p50 %s  p90 %s  p99 %s  (n=%s)" label
      (fmt_opt "%.1f" (fnum [ "p50" ] n))
      (fmt_opt "%.1f" (fnum [ "p90" ] n))
      (fmt_opt "%.1f" (fnum [ "p99" ] n))
      (fmt_opt "%d" (inum [ "count" ] n))
  | _ -> Printf.sprintf "  latency ms (%s): no samples" label

let rate_line name node =
  let h = fnum [ "hits" ] node and m = fnum [ "misses" ] node in
  match (h, m) with
  | Some h, Some m when h +. m > 0.0 ->
    Printf.sprintf "%s %.1f%% (%g/%g)" name (100.0 *. h /. (h +. m)) h (h +. m)
  | _ -> Printf.sprintf "%s -" name

let span_rows metrics =
  match mem [ "spans" ] metrics with
  | Some (J.Obj rows) ->
    List.filter_map
      (fun (name, v) ->
        match (inum [ "calls" ] v, fnum [ "total_ms" ] v) with
        | Some c, Some t -> Some (name, c, t)
        | _ -> None)
      rows
  | _ -> []

(* prev = (uptime_s, span rows) from the previous poll, for rates *)
let render ~top_spans ~prev metrics health =
  let b = Buffer.create 1024 in
  let uptime = fnum [ "uptime_s" ] metrics in
  let jobs_cum = inum [ "cumulative"; "counters"; "serve.jobs" ] metrics in
  let errors_cum = inum [ "cumulative"; "counters"; "serve.errors" ] metrics in
  buf_addf b "vm1d · uptime %s s · jobs %s (%s errors) · queue depth %s\n"
    (fmt_opt "%.1f" uptime) (fmt_opt "%d" jobs_cum) (fmt_opt "%d" errors_cum)
    (fmt_opt "%.0f"
       (match health with
        | Some h -> fnum [ "queue_depth" ] h
        | None -> fnum [ "cumulative"; "gauges"; "serve.queue_depth" ] metrics));
  (* throughput and latency, per window when the document carries them *)
  let windowed = ref false in
  List.iter
    (fun h ->
      match window_with_horizon h metrics with
      | None -> ()
      | Some w ->
        windowed := true;
        let label = Printf.sprintf "last %ds" h in
        (* a daemon younger than [h] has been up for only part of the
           window: its jobs all fall within [uptime] seconds *)
        let span =
          match uptime with
          | Some u when u > 0.0 -> Float.min (float_of_int h) u
          | _ -> float_of_int h
        in
        buf_addf b "  throughput (%s): %s job/s\n" label
          (fmt_opt "%.2f"
             (Option.map
                (fun j -> j /. span)
                (fnum [ "counters"; "serve.jobs" ] w)));
        buf_addf b "%s\n"
          (latency_line label
             (mem [ "histograms"; "serve.job_latency_ms" ] w)))
    [ 10; 60 ];
  if not !windowed then begin
    buf_addf b "  throughput (cumulative): %s job/s\n"
      (fmt_opt "%.2f"
         (match (jobs_cum, uptime) with
          | Some j, Some u when u > 0.0 -> Some (float_of_int j /. u)
          | _ -> None));
    buf_addf b "%s\n"
      (latency_line "cumulative"
         (mem [ "cumulative"; "histograms"; "serve.job_latency_ms" ] metrics))
  end;
  (* cache hit rates from the cumulative counters *)
  let counter name = fnum [ "cumulative"; "counters"; name ] metrics in
  let pair hits misses =
    J.Obj
      [
        ("hits", J.Float (Option.value ~default:0.0 (counter hits)));
        ("misses", J.Float (Option.value ~default:0.0 (counter misses)));
      ]
  in
  buf_addf b "  caches: %s   %s\n"
    (rate_line "artifact" (pair "serve.cache_hits" "serve.cache_misses"))
    (rate_line "wcache" (pair "distopt.wcache_hits" "distopt.wcache_misses"));
  buf_addf b "  alloc: minor words/window %s   minor words/subnet %s\n"
    (fmt_opt "%.0f"
       (fnum [ "cumulative"; "gauges"; "distopt.minor_words_per_window" ]
          metrics))
    (fmt_opt "%.0f"
       (fnum [ "cumulative"; "gauges"; "route.minor_words_per_subnet" ]
          metrics));
  (* busiest spans, with call rates against the previous poll *)
  let rows = span_rows metrics in
  if top_spans > 0 && rows <> [] then begin
    let by_total =
      List.sort (fun (_, _, a) (_, _, b) -> Float.compare b a) rows
    in
    let shown = List.filteri (fun i _ -> i < top_spans) by_total in
    buf_addf b "  %-36s %10s %12s %10s\n" "span" "calls" "total ms" "calls/s";
    List.iter
      (fun (name, calls, total) ->
        let rate =
          match (prev, uptime) with
          | Some (prev_uptime, prev_rows), Some u when u > prev_uptime -> (
            let dt = u -. prev_uptime in
            match
              List.find_opt (fun (n, _, _) -> String.equal n name) prev_rows
            with
            | Some (_, pc, _) ->
              Printf.sprintf "%.1f" (float_of_int (calls - pc) /. dt)
            | None -> Printf.sprintf "%.1f" (float_of_int calls /. dt))
          | _ -> "-"
        in
        buf_addf b "  %-36s %10d %12.1f %10s\n" name calls total rate)
      shown
  end;
  (Buffer.contents b, (uptime, rows))

let run socket_path from_file watch top_spans =
  match (socket_path, from_file) with
  | None, None | Some _, Some _ ->
    Printf.eprintf "vm1top: pass exactly one of --socket or --from\n%!";
    exit 2
  | None, Some file ->
    let text, _ = render ~top_spans ~prev:None (load_file file) None in
    print_string text
  | Some path, None ->
    if watch <= 0.0 then begin
      match scrape path [ "metrics"; "health" ] with
      | [ metrics; health ] ->
        let text, _ = render ~top_spans ~prev:None metrics (Some health) in
        print_string text
      | _ -> assert false
    end
    else begin
      let prev = ref None in
      while true do
        (match scrape path [ "metrics"; "health" ] with
        | [ metrics; health ] ->
          let text, state =
            render ~top_spans ~prev:!prev metrics (Some health)
          in
          (* clear screen + home, like top(1) *)
          print_string "\027[2J\027[H";
          print_string text;
          flush stdout;
          prev :=
            (match state with
             | Some u, rows -> Some (u, rows)
             | None, _ -> !prev)
        | _ -> assert false);
        Unix.sleepf watch
      done
    end

let cmd =
  let doc = "live telemetry report for the vm1d batch daemon" in
  Cmd.v (Cmd.info "vm1top" ~doc)
    Term.(const run $ socket_path $ from_file $ watch $ top_spans)

let () = exit (Cmd.eval cmd)
