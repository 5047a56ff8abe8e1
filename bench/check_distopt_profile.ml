(* DistOpt-profile regression gate for the @distopt-bench-smoke alias.

   Usage: check_distopt_profile.exe BASELINE.json CURRENT.json

   Both files follow the vm1dp-distopt-profile/1 schema emitted by
   [main.exe distopt-profile]. The gated quantities are the deterministic
   ones — moves, windows, HPWL, alignments are a pure function of the
   design and scale, so any drift is a real behaviour change — the
   portfolio's per-solver win counts (equally deterministic), plus the
   run's own invariants: the warm-cache replay must be byte-identical to
   the cold pass (hit_is_miss) and the warm pass must actually hit the
   cache. Wall-clock and percentile fields are printed for the log but
   never gated; CI machines are too noisy for that. *)

let read_json path =
  let ic = open_in path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Obs.Json.parse text with
  | Ok j -> j
  | Error msg ->
    Printf.eprintf "check_distopt_profile: %s: bad JSON: %s\n" path msg;
    exit 2

let get_int path j key =
  match Obs.Json.member key j with
  | Some (Obs.Json.Int v) -> v
  | _ ->
    Printf.eprintf "check_distopt_profile: %s: missing int field %S\n" path
      key;
    exit 2

let get_float path j key =
  match Obs.Json.member key j with
  | Some (Obs.Json.Float v) -> v
  | Some (Obs.Json.Int v) -> float_of_int v
  | _ ->
    Printf.eprintf "check_distopt_profile: %s: missing float field %S\n" path
      key;
    exit 2

let get_bool path j key =
  match Obs.Json.member key j with
  | Some (Obs.Json.Bool v) -> v
  | _ ->
    Printf.eprintf "check_distopt_profile: %s: missing bool field %S\n" path
      key;
    exit 2

let get_obj path j key =
  match Obs.Json.member key j with
  | Some (Obs.Json.Obj _ as o) -> o
  | _ ->
    Printf.eprintf "check_distopt_profile: %s: missing object field %S\n" path
      key;
    exit 2

let () =
  let base_path, cur_path =
    match Sys.argv with
    | [| _; b; c |] -> (b, c)
    | _ ->
      prerr_endline
        "usage: check_distopt_profile.exe BASELINE.json CURRENT.json";
      exit 2
  in
  let base = read_json base_path and cur = read_json cur_path in
  (match (Obs.Json.member "schema" base, Obs.Json.member "schema" cur) with
  | Some (Obs.Json.Str b), Some (Obs.Json.Str c)
    when String.equal b Obs.Schemas.distopt_profile
         && String.equal c Obs.Schemas.distopt_profile -> ()
  | _ ->
    prerr_endline "check_distopt_profile: schema mismatch";
    exit 2);
  Printf.printf "distopt cold_s: baseline %.3f, current %.3f (informational)\n"
    (get_float base_path base "distopt_cold_s")
    (get_float cur_path cur "distopt_cold_s");
  Printf.printf "distopt warm_s: baseline %.3f, current %.3f (informational)\n"
    (get_float base_path base "distopt_warm_s")
    (get_float cur_path cur "distopt_warm_s");
  let bad = ref false in
  (* [obj] names a nested object of both files, e.g. "portfolio_wins" *)
  let gate_int ?obj key =
    let base, cur, label =
      match obj with
      | None -> (base, cur, key)
      | Some o ->
        (get_obj base_path base o, get_obj cur_path cur o, o ^ "." ^ key)
    in
    let b = get_int base_path base key and c = get_int cur_path cur key in
    Printf.printf "%s: baseline %d, current %d\n" label b c;
    if c <> b then begin
      Printf.eprintf "REGRESSION: %s %d <> baseline %d\n" label c b;
      bad := true
    end
  in
  gate_int "windows";
  gate_int "moves";
  gate_int "hpwl_dbu";
  gate_int "alignments";
  gate_int ~obj:"portfolio_wins" "exact";
  gate_int ~obj:"portfolio_wins" "greedy";
  gate_int ~obj:"portfolio_wins" "anneal";
  if not (get_bool cur_path cur "hit_is_miss") then begin
    prerr_endline "REGRESSION: warm-cache replay diverged (hit_is_miss false)";
    bad := true
  end;
  let wcache = get_obj cur_path cur "wcache" in
  let hits = get_int cur_path wcache "hits" in
  Printf.printf "wcache hits: %d (hit_rate %.2f)\n" hits
    (get_float cur_path wcache "hit_rate");
  if hits = 0 then begin
    prerr_endline "REGRESSION: warm pass never hit the window cache";
    bad := true
  end;
  if !bad then exit 1;
  print_endline "distopt profile OK"
