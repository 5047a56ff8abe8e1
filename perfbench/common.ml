(* Helpers shared by the workloads: wall clock, order statistics, peak
   memory, the failure tally and the result line. *)

let now_s () = Int64.to_float (Obs.now_ns ()) /. 1e9

let timed f =
  let t0 = now_s () in
  let v = f () in
  (v, now_s () -. t0)

let sorted_array l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let median l =
  let a = sorted_array l in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* nearest rank: the smallest sample with at least [q] of the samples
   at or below it *)
let percentile q l =
  let a = sorted_array l in
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let ratio num den = if den = 0.0 then 0.0 else num /. den

(* {1 Host speed}

   The host is a virtual machine shared with other guests, and its speed
   drifts by up to 3x over minutes: memory-bound code slows most. A run
   therefore times a fixed reference slice between its measured
   operations, and reports every end-to-end time scaled to the
   reference speed:

     raw time x nominal_slice_s / (median slice time of the run)

   The slice builds, folds and sorts a hash table, then follows a chain
   of dependent loads through 32 MiB. It runs in a fresh process of
   this executable (perfbench --slice), so nothing the program left in
   this one changes it. It is the benchmark's own code and calls
   nothing in lib/, so a change to the program moves scaled times as
   much as raw ones. *)

(* a round figure near the slice's time on a 2-vCPU 2.1 GHz Xeon host
   in a quiet phase *)
let nominal_slice_s = 0.15

let chain_length = 1 lsl 22

(* one cycle through every index, in an order that defeats the
   prefetcher: a full-period linear congruential map *)
let chain () =
  Array.init chain_length (fun i ->
      ((i * 1103515245) + 12345) land (chain_length - 1))

let slice_work chain =
  let h = Hashtbl.create 16 in
  for i = 1 to 150_000 do
    Hashtbl.replace h (i * 7919) (string_of_int i, [ i; i + 1 ])
  done;
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) h [] in
  ignore (Sys.opaque_identity (List.sort compare keys));
  let p = ref 0 in
  for _ = 1 to 1_000_000 do
    p := chain.(!p)
  done;
  ignore (Sys.opaque_identity !p)

(* The slices of one run, taken two at a time, one per vCPU of the
   host: a vCPU slower than the other shows in them. *)
type host = { mutable slices : float list (** newest first *) }

let slice h =
  let exe = Sys.executable_name in
  let running =
    List.init 2 (fun _ -> Unix.open_process_args_in exe [| exe; "--slice" |])
  in
  (* reap both before any failure is raised *)
  let ended =
    List.map
      (fun ic ->
        let line = In_channel.input_line ic in
        (Unix.close_process_in ic, line))
      running
  in
  List.iter
    (function
      | Unix.WEXITED 0, Some l -> h.slices <- float_of_string l :: h.slices
      | _ -> failwith "perfbench: the reference slice failed")
    ended

(* After an idle spell the host runs the first second or so of work up
   to 2x slower, so a run starts with a pair of slices it does not
   keep. *)
let host () =
  let h = { slices = [] } in
  slice h;
  h.slices <- [];
  h

(* [raw] at the reference speed *)
let scaled h raw = raw *. nominal_slice_s /. median h.slices

let print_slices h =
  Printf.printf "reference slices (s):%s\n"
    (String.concat "" (List.rev_map (Printf.sprintf " %.3f") h.slices))

(* VmHWM of a process ("self" or a pid), in MiB *)
let peak_rss_mb proc =
  let path = Printf.sprintf "/proc/%s/status" proc in
  match In_channel.with_open_text path In_channel.input_all with
  | text ->
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
          Scanf.sscanf (String.trim v) "%d kB" (fun kb ->
              Some (float_of_int kb /. 1024.0))
        | _ -> None)
      (String.split_on_char '\n' text)
  | exception Sys_error _ -> None

(* Operations attempted and the correctness problems found in them: an
   operation with at least one problem counts as failed. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** newest first *)
}

let tally () = { attempted = 0; failed = 0; problems = [] }

let record t problems =
  t.attempted <- t.attempted + 1;
  if problems <> [] then begin
    t.failed <- t.failed + 1;
    t.problems <- List.rev_append problems t.problems
  end

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* Prints every metric by name and unit, the problems, and as the last
   line of stdout the result object; a failed operation makes the exit
   code 1. *)
let finish ~workload ~seed t metrics =
  Printf.printf "%s seed=%d: %d operations, %d failed\n" workload seed
    t.attempted t.failed;
  List.iter
    (fun m -> Printf.printf "  %-32s %16.6g %s\n" m.name m.value m.unit_)
    metrics;
  List.iter (fun p -> Printf.printf "  FAILED: %s\n" p) (List.rev t.problems);
  let module J = Obs.Json in
  let json =
    J.Obj
      [
        ("correct", J.Bool (t.failed = 0 && t.attempted > 0));
        ("attempted", J.Int t.attempted);
        ("failed", J.Int t.failed);
        ( "metrics",
          J.Obj
            (List.map
               (fun m ->
                 ( m.name,
                   J.Obj [ ("value", J.Float m.value); ("unit", J.Str m.unit_) ]
                 ))
               metrics) );
      ]
  in
  print_endline (J.to_string json);
  exit (if t.failed = 0 && t.attempted > 0 then 0 else 1)

(* The traced run's per-layer view: the program's own spans and
   counters merged with the benchmark's spans, read back through the
   same vm1dp-trace/1 model vm1trace uses. *)
module Layers = struct
  type t = { model : Trace.Model.t; rows : Trace.Profile.row list }

  let of_snapshot snap =
    match Trace.Model.of_json (Obs.trace_json snap) with
    | Ok model -> { model; rows = Trace.Profile.rows model }
    | Error msg -> failwith ("perfbench: unreadable own trace: " ^ msg)

  let row t name =
    List.find_opt (fun (r : Trace.Profile.row) -> r.name = name) t.rows

  let total_s t name =
    match row t name with
    | Some r -> float_of_int r.total_ns /. 1e9
    | None -> 0.0

  let self_s t name =
    match row t name with
    | Some r -> float_of_int r.self_ns /. 1e9
    | None -> 0.0

  let counter t name =
    float_of_int
      (Option.value ~default:0 (List.assoc_opt name t.model.counters))

  let gauge t name =
    Option.value ~default:0.0 (List.assoc_opt name t.model.gauges)
end

let gc_delta (g0 : Gc.stat) (g1 : Gc.stat) =
  ( g1.Gc.minor_words -. g0.Gc.minor_words,
    float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) )

(* Writes the traced run's vm1dp-trace/1 file and checks that vm1trace
   opens it; returns the problems found. *)
let write_and_check_trace ~vm1trace path =
  Obs.write_trace path;
  Printf.printf "trace: %s\n%!" path;
  List.filter_map
    (fun verb ->
      let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      let pid =
        Unix.create_process vm1trace [| vm1trace; verb; path |] Unix.stdin null
          Unix.stderr
      in
      Unix.close null;
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> None
      | _ -> Some (Printf.sprintf "vm1trace %s rejects %s" verb path))
    [ "report"; "critical-path" ]
