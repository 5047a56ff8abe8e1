module Json = Json
module Schemas = Schemas

external now_ns : unit -> int64 = "obs_monotonic_ns"

let on = Atomic.make false
let enabled () = Atomic.get on
let set_enabled v = Atomic.set on v

type attr = [ `Int of int | `Float of float | `Str of string ]

module Span = struct
  type t = {
    name : string;
    start_ns : int64;
    end_ns : int64;
    attrs : (string * attr) list;
    children : t list;
  }

  let duration_ns s = Int64.sub s.end_ns s.start_ns
end

(* --- open-span stacks: one per domain, merged at snapshot time --- *)

type open_span = {
  oname : string;
  ostart : int64;
  mutable oattrs : (string * attr) list;   (* reversed *)
  mutable ochildren : Span.t list;         (* reversed *)
}

let stack_key : open_span list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let completed_mu = Mutex.create ()
let completed : Span.t list ref = ref []   (* reversed *)
let completed_n = ref 0                    (* List.length !completed *)

(* The pop happens before [close_span], so the parent (if any) is the new
   top of this domain's stack. Root spans go to the global list; the
   mutex is taken once per root span, never per nested span. *)
let close_span os end_ns =
  let sp =
    {
      Span.name = os.oname;
      start_ns = os.ostart;
      end_ns;
      attrs = List.rev os.oattrs;
      children = List.rev os.ochildren;
    }
  in
  match !(Domain.DLS.get stack_key) with
  | parent :: _ -> parent.ochildren <- sp :: parent.ochildren
  | [] ->
    Mutex.lock completed_mu;
    completed := sp :: !completed;
    incr completed_n;
    Mutex.unlock completed_mu

let with_span ?(attrs = []) name f =
  if not (enabled ()) then f ()
  else begin
    let stack = Domain.DLS.get stack_key in
    let os =
      { oname = name; ostart = now_ns (); oattrs = List.rev attrs;
        ochildren = [] }
    in
    stack := os :: !stack;
    Fun.protect
      ~finally:(fun () ->
        let end_ns = now_ns () in
        (match !stack with
        | top :: rest when top == os -> stack := rest
        | _ -> stack := List.filter (fun o -> o != os) !stack);
        close_span os end_ns)
      f
  end

let add_attr k v =
  if enabled () then
    match !(Domain.DLS.get stack_key) with
    | top :: _ -> top.oattrs <- (k, v) :: top.oattrs
    | [] -> ()

(* --- metrics --- *)

module Counter = struct
  type t = int Atomic.t

  let add t n = if Atomic.get on then ignore (Atomic.fetch_and_add t n)
  let incr t = add t 1
  let value t = Atomic.get t
  let reset t = Atomic.set t 0
end

module Gauge = struct
  (* [writes] counts the [set]s, so a reader comparing two reads can
     tell whether the gauge was written between them *)
  type t = { cell : float Atomic.t; writes : int Atomic.t }

  let create () = { cell = Atomic.make 0.0; writes = Atomic.make 0 }

  let set t v =
    if Atomic.get on then begin
      Atomic.set t.cell v;
      Atomic.incr t.writes
    end

  let value t = Atomic.get t.cell
  let writes t = Atomic.get t.writes

  let reset t =
    Atomic.set t.cell 0.0;
    Atomic.set t.writes 0
end

module Histogram = struct
  type t = {
    bounds : float array;
    counts : int Atomic.t array;  (* bounds + 1 cells; last = overflow *)
    nobs : int Atomic.t;
    sum : float Atomic.t;
  }

  let default_bounds =
    Array.init 14 (fun i -> 0.001 *. (3.0 ** float_of_int i))

  let create bounds =
    {
      bounds;
      counts = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
      nobs = Atomic.make 0;
      sum = Atomic.make 0.0;
    }

  let rec atomic_add_float a x =
    let cur = Atomic.get a in
    if not (Atomic.compare_and_set a cur (cur +. x)) then atomic_add_float a x

  let observe t x =
    if Atomic.get on then begin
      let nb = Array.length t.bounds in
      let i = ref 0 in
      while !i < nb && x > t.bounds.(!i) do
        incr i
      done;
      ignore (Atomic.fetch_and_add t.counts.(!i) 1);
      ignore (Atomic.fetch_and_add t.nobs 1);
      atomic_add_float t.sum x
    end

  type snap = {
    bounds : float array;
    counts : int array;
    count : int;
    sum : float;
  }

  let snap (t : t) =
    {
      bounds = Array.copy t.bounds;
      counts = Array.map Atomic.get t.counts;
      count = Atomic.get t.nobs;
      sum = Atomic.get t.sum;
    }

  (* Percentile estimate from the bucket counts (linear interpolation
     inside the bucket, Prometheus-style). The overflow bucket has no
     upper edge, so anything landing there reports the highest bound.
     Total on any snap: an empty snap (or one with no bounds at all)
     has no quantiles, so the estimate is [nan] — callers that render
     must branch on [Float.is_nan] (the JSON exporter prints non-finite
     floats as [null]). *)
  let percentile (s : snap) q =
    if s.count = 0 then Float.nan
    else begin
      let nb = Array.length s.bounds in
      let target = q *. float_of_int s.count in
      let i = ref 0 and cum = ref 0.0 in
      while
        !i < nb && !cum +. float_of_int s.counts.(!i) < target
      do
        cum := !cum +. float_of_int s.counts.(!i);
        incr i
      done;
      if !i >= nb then (if nb = 0 then Float.nan else s.bounds.(nb - 1))
      else begin
        let lower = if !i = 0 then 0.0 else s.bounds.(!i - 1) in
        let upper = s.bounds.(!i) in
        let in_bucket = float_of_int s.counts.(!i) in
        let frac =
          if in_bucket <= 0.0 then 1.0
          else Float.min 1.0 ((target -. !cum) /. in_bucket)
        in
        lower +. (frac *. (upper -. lower))
      end
    end

  let reset (t : t) =
    Array.iter (fun c -> Atomic.set c 0) t.counts;
    Atomic.set t.nobs 0;
    Atomic.set t.sum 0.0
end

(* --- process-global registry --- *)

type metric =
  | C of Counter.t
  | G of Gauge.t
  | H of Histogram.t

let reg_mu = Mutex.create ()
let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

let get_or_create name make classify =
  Mutex.lock reg_mu;
  let r =
    match Hashtbl.find_opt registry name with
    | Some m -> classify m
    | None ->
      let m = make () in
      Hashtbl.add registry name m;
      classify m
  in
  Mutex.unlock reg_mu;
  match r with
  | Some v -> v
  | None ->
    invalid_arg (Printf.sprintf "Obs: metric %S exists with another kind" name)

let counter name =
  get_or_create name
    (fun () -> C (Atomic.make 0))
    (function C c -> Some c | _ -> None)

let gauge name =
  get_or_create name
    (fun () -> G (Gauge.create ()))
    (function G g -> Some g | _ -> None)

let histogram ?(bounds = Histogram.default_bounds) name =
  get_or_create name
    (fun () -> H (Histogram.create bounds))
    (function H h -> Some h | _ -> None)

(* --- snapshot and export --- *)

type snapshot = {
  spans : Span.t list;
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * Histogram.snap) list;
}

let by_name (a, _) (b, _) = String.compare a b

let sorted_metrics () =
  Mutex.lock reg_mu;
  let metrics =
    Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry []
    |> List.sort by_name
  in
  Mutex.unlock reg_mu;
  metrics

let sort_roots roots =
  List.stable_sort
    (fun (a : Span.t) (b : Span.t) -> Int64.compare a.start_ns b.start_ns)
    roots

let snapshot_of_roots roots =
  let metrics = sorted_metrics () in
  let pick f = List.filter_map (fun (name, m) -> f name m) metrics in
  {
    spans = sort_roots roots;
    counters =
      pick (fun n m ->
          match m with C c -> Some (n, Counter.value c) | _ -> None);
    gauges =
      pick (fun n m -> match m with G g -> Some (n, Gauge.value g) | _ -> None);
    histograms =
      pick (fun n m ->
          match m with H h -> Some (n, Histogram.snap h) | _ -> None);
  }

let snapshot () =
  Mutex.lock completed_mu;
  let roots = List.rev !completed in
  Mutex.unlock completed_mu;
  snapshot_of_roots roots

let metrics () = snapshot_of_roots []

(* --- incremental snapshots ------------------------------------------ *)

type cursor = { mutable seen_roots : int }

let cursor () = { seen_roots = 0 }

(* the newest-first prefix of [l], returned oldest-first *)
let rec take_rev n l acc =
  if n <= 0 then acc
  else match l with [] -> acc | x :: tl -> take_rev (n - 1) tl (x :: acc)

let snapshot_delta (c : cursor) =
  Mutex.lock completed_mu;
  let total = !completed_n in
  let fresh = take_rev (total - c.seen_roots) !completed [] in
  Mutex.unlock completed_mu;
  c.seen_roots <- total;
  snapshot_of_roots fresh

let reset () =
  Mutex.lock completed_mu;
  completed := [];
  completed_n := 0;
  Mutex.unlock completed_mu;
  Mutex.lock reg_mu;
  Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry []
  |> List.sort by_name
  |> List.iter (fun (_, m) ->
         match m with
         | C c -> Counter.reset c
         | G g -> Gauge.reset g
         | H h -> Histogram.reset h);
  Mutex.unlock reg_mu

(* --- bounded ring --------------------------------------------------- *)

module Ring = struct
  type 'a t = {
    mu : Mutex.t;
    buf : 'a option array;
    mutable next : int;
    mutable len : int;
  }

  let create capacity =
    {
      mu = Mutex.create ();
      buf = Array.make (max 1 capacity) None;
      next = 0;
      len = 0;
    }

  let push t v =
    Mutex.lock t.mu;
    t.buf.(t.next) <- Some v;
    t.next <- (t.next + 1) mod Array.length t.buf;
    t.len <- min (Array.length t.buf) (t.len + 1);
    Mutex.unlock t.mu

  let length t =
    Mutex.lock t.mu;
    let n = t.len in
    Mutex.unlock t.mu;
    n

  let to_list t =
    Mutex.lock t.mu;
    let cap = Array.length t.buf in
    let out = ref [] in
    (* newest first while walking backwards, so the result is oldest
       first *)
    for k = 0 to t.len - 1 do
      match t.buf.((t.next - 1 - k + (2 * cap)) mod cap) with
      | Some v -> out := v :: !out
      | None -> ()
    done;
    Mutex.unlock t.mu;
    !out
end

type span_agg = {
  calls : int;
  total_ns : int64;
  min_ns : int64;
  max_ns : int64;
}

let aggregate_spans roots =
  let tbl : (string, span_agg) Hashtbl.t = Hashtbl.create 32 in
  let rec visit (s : Span.t) =
    let d = Span.duration_ns s in
    let agg =
      match Hashtbl.find_opt tbl s.name with
      | None -> { calls = 1; total_ns = d; min_ns = d; max_ns = d }
      | Some a ->
        {
          calls = a.calls + 1;
          total_ns = Int64.add a.total_ns d;
          min_ns = Int64.min a.min_ns d;
          max_ns = Int64.max a.max_ns d;
        }
    in
    Hashtbl.replace tbl s.name agg;
    List.iter visit s.children
  in
  List.iter visit roots;
  Hashtbl.fold (fun name agg acc -> (name, agg) :: acc) tbl []
  |> List.sort (fun (na, a) (nb, b) ->
         match Int64.compare b.total_ns a.total_ns with
         | 0 -> String.compare na nb  (* deterministic on ties *)
         | c -> c)

let attr_json : attr -> Json.t = function
  | `Int i -> Json.Int i
  | `Float f -> Json.Float f
  | `Str s -> Json.Str s

let rec span_json (s : Span.t) =
  let base =
    [
      ("name", Json.Str s.name);
      ("start_ns", Json.Int (Int64.to_int s.start_ns));
      ("dur_ns", Json.Int (Int64.to_int (Span.duration_ns s)));
    ]
  in
  let attrs =
    match s.attrs with
    | [] -> []
    | l -> [ ("attrs", Json.Obj (List.map (fun (k, v) -> (k, attr_json v)) l)) ]
  in
  let children =
    match s.children with
    | [] -> []
    | l -> [ ("children", Json.List (List.map span_json l)) ]
  in
  Json.Obj (base @ attrs @ children)

let hist_json (h : Histogram.snap) =
  Json.Obj
    [
      ("bounds", Json.List (Array.to_list (Array.map (fun f -> Json.Float f) h.bounds)));
      ("counts", Json.List (Array.to_list (Array.map (fun i -> Json.Int i) h.counts)));
      ("count", Json.Int h.count);
      ("sum", Json.Float h.sum);
      ("p50", Json.Float (Histogram.percentile h 0.50));
      ("p90", Json.Float (Histogram.percentile h 0.90));
      ("p99", Json.Float (Histogram.percentile h 0.99));
    ]

let trace_json (snap : snapshot) =
  Json.Obj
    [
      ("schema", Json.Str Schemas.trace);
      ("spans", Json.List (List.map span_json snap.spans));
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) snap.counters));
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) snap.gauges));
      ("histograms", Json.Obj (List.map (fun (k, h) -> (k, hist_json h)) snap.histograms));
    ]

let write_trace path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (trace_json (snapshot ())));
      output_char oc '\n')
