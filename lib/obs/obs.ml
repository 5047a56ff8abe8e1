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

(* --- rolling-window core (the write side of Obs.Window) ------------

   Time is cut into fixed-width buckets (epoch = now / bucket_ns); a
   windowed metric owns per-stripe ring buffers of [wbuckets] slots
   indexed by [epoch mod wbuckets], each slot holding that stripe's
   delta for one bucket. A writer finding its slot tagged with a stale
   epoch zeroes it and claims it; the slot then accumulates deltas with
   plain writes — one writer per stripe (the stripe is the writing
   domain's), so no write contention, mirroring the counter cells.
   Readers sum the slots whose epoch lies inside the requested horizon:
   the same merge-on-read idea as snapshots. A reader racing a bucket
   turnover may transiently misattribute that instant's bumps, but a
   horizon covering the whole recording period is exact once the
   writing domains are joined (the invariant the windowed-merge
   property test checks). Rings are preallocated or published through
   an atomic, so an enabled window adds no allocation to the metric hot
   paths; the one-time per-stripe ring allocation is cold. *)

module Wcore = struct
  let w_on = Atomic.make false

  (* bucket width; configurable before enabling (Window.configure) *)
  let bucket_ns = Atomic.make 1_000_000_000

  (* power of two; a horizon spans at most [wbuckets - 1] buckets *)
  let wbuckets = 64

  let epoch_at t_ns = Int64.to_int t_ns / Atomic.get bucket_ns
  let epoch_now () = epoch_at (now_ns ())

  (* counter ring: per-slot claim epoch + per-slot delta *)
  type cring = { ce : int Atomic.t array; cd : int array }

  let make_cring () =
    { ce = Array.init wbuckets (fun _ -> Atomic.make min_int);
      cd = Array.make wbuckets 0 }

  type wcounter = { crings : cring option Atomic.t array (* per stripe *) }

  let make_wcounter stripes =
    { crings = Array.init stripes (fun _ -> Atomic.make None) }

  let c_record (w : wcounter) i n =
    let r =
      match Atomic.get w.crings.(i) with
      | Some r -> r
      | None ->
        begin
          let r = make_cring () in
          Atomic.set w.crings.(i) (Some r);
          r
        end [@vm1.cold]
    in
    let e = epoch_now () in
    let s = e land (wbuckets - 1) in
    if Atomic.get r.ce.(s) <> e then begin
      r.cd.(s) <- 0;
      Atomic.set r.ce.(s) e
    end;
    r.cd.(s) <- r.cd.(s) + n

  let c_read (w : wcounter) ~e_start ~e_now =
    Array.fold_left
      (fun acc cell ->
        match Atomic.get cell with
        | None -> acc
        | Some r ->
          let sum = ref acc in
          for s = 0 to wbuckets - 1 do
            let e = Atomic.get r.ce.(s) in
            if e >= e_start && e <= e_now then sum := !sum + r.cd.(s)
          done;
          !sum)
      0 w.crings

  let c_reset (w : wcounter) =
    Array.iter (fun cell -> Atomic.set cell None) w.crings

  (* gauge ring: shared across domains, last write per bucket wins *)
  type wgauge = { ge : int Atomic.t array; gv : float Atomic.t array }

  let make_wgauge () =
    { ge = Array.init wbuckets (fun _ -> Atomic.make min_int);
      gv = Array.init wbuckets (fun _ -> Atomic.make 0.0) }

  let g_record (w : wgauge) v =
    let e = epoch_now () in
    let s = e land (wbuckets - 1) in
    Atomic.set w.gv.(s) v;
    Atomic.set w.ge.(s) e

  (* the value written in the newest in-horizon bucket, if any *)
  let g_read (w : wgauge) ~e_start ~e_now =
    let best = ref min_int and v = ref 0.0 in
    for s = 0 to wbuckets - 1 do
      let e = Atomic.get w.ge.(s) in
      if e >= e_start && e <= e_now && e > !best then begin
        best := e;
        v := Atomic.get w.gv.(s)
      end
    done;
    if !best = min_int then None else Some !v

  let g_reset (w : wgauge) =
    Array.iter (fun cell -> Atomic.set cell min_int) w.ge

  (* histogram ring: per-slot bucket-count deltas plus count/sum *)
  type hring = {
    he : int Atomic.t array;
    hd : int array array;  (* slot -> histogram-bucket deltas *)
    hn : int array;
    hs : float array;
  }

  let make_hring nb1 =
    { he = Array.init wbuckets (fun _ -> Atomic.make min_int);
      hd = Array.init wbuckets (fun _ -> Array.make nb1 0);
      hn = Array.make wbuckets 0;
      hs = Array.make wbuckets 0.0 }

  type whist = { hrings : hring option Atomic.t array (* per stripe *) }

  let make_whist stripes =
    { hrings = Array.init stripes (fun _ -> Atomic.make None) }

  let h_record (w : whist) ~nb1 i bucket x =
    let r =
      match Atomic.get w.hrings.(i) with
      | Some r -> r
      | None ->
        begin
          let r = make_hring nb1 in
          Atomic.set w.hrings.(i) (Some r);
          r
        end [@vm1.cold]
    in
    let e = epoch_now () in
    let s = e land (wbuckets - 1) in
    if Atomic.get r.he.(s) <> e then begin
      let d = r.hd.(s) in
      for k = 0 to Array.length d - 1 do
        d.(k) <- 0
      done;
      r.hn.(s) <- 0;
      r.hs.(s) <- 0.0;
      Atomic.set r.he.(s) e
    end;
    let d = r.hd.(s) in
    d.(bucket) <- d.(bucket) + 1;
    r.hn.(s) <- r.hn.(s) + 1;
    r.hs.(s) <- r.hs.(s) +. x

  let h_read (w : whist) ~nb1 ~e_start ~e_now =
    let counts = Array.make nb1 0 in
    let count = ref 0 and sum = ref 0.0 in
    Array.iter
      (fun cell ->
        match Atomic.get cell with
        | None -> ()
        | Some r ->
          for s = 0 to wbuckets - 1 do
            let e = Atomic.get r.he.(s) in
            if e >= e_start && e <= e_now then begin
              let d = r.hd.(s) in
              for k = 0 to nb1 - 1 do
                counts.(k) <- counts.(k) + d.(k)
              done;
              count := !count + r.hn.(s);
              sum := !sum +. r.hs.(s)
            end
          done)
      w.hrings;
    (counts, !count, !sum)

  let h_reset (w : whist) =
    Array.iter (fun cell -> Atomic.set cell None) w.hrings
end

(* --- metrics --- *)

module Counter = struct
  (* One stripe per live domain: concurrent bumps from different domains
     land in different cells, so there is no write contention in the
     common case; [value] merges the per-domain cells. *)
  let stripes = 64

  (* Stripes are handed out lowest-free-first and returned when the
     domain exits, so no two live domains share one while at most
     [stripes] are alive. The window rings rely on that: they assume a
     single writer per stripe. Indexing by [Domain.self] modulo
     [stripes] broke it once a respawned pool's domain ids wrapped onto
     a live domain's (the main domain's 0 and a worker's 64), losing
     windowed updates. Beyond [stripes] live domains they share. *)
  let stripe_mu = Mutex.create ()
  let stripe_used = Array.make stripes false

  let rec free_stripe i =
    if i = stripes then None
    else if stripe_used.(i) then free_stripe (i + 1)
    else Some i

  let release_stripe i () =
    Mutex.lock stripe_mu;
    stripe_used.(i) <- false;
    Mutex.unlock stripe_mu

  let stripe_key =
    Domain.DLS.new_key (fun () ->
        Mutex.lock stripe_mu;
        let s = free_stripe 0 in
        Option.iter (fun i -> stripe_used.(i) <- true) s;
        Mutex.unlock stripe_mu;
        match s with
        | Some i ->
          Domain.at_exit (release_stripe i);
          i
        | None -> (Domain.self () :> int) land (stripes - 1))

  let stripe () = Domain.DLS.get stripe_key

  type t = { cells : int Atomic.t array; w : Wcore.wcounter }

  let create () =
    { cells = Array.init stripes (fun _ -> Atomic.make 0);
      w = Wcore.make_wcounter stripes }

  let add t n =
    if Atomic.get on then begin
      let i = stripe () in
      if Atomic.get Wcore.w_on then Wcore.c_record t.w i n;
      ignore (Atomic.fetch_and_add t.cells.(i) n)
    end

  let incr t = add t 1
  let value t = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 t.cells

  let reset t =
    Array.iter (fun c -> Atomic.set c 0) t.cells;
    Wcore.c_reset t.w
end

module Gauge = struct
  type t = { cell : float Atomic.t; w : Wcore.wgauge }

  let create () = { cell = Atomic.make 0.0; w = Wcore.make_wgauge () }

  let set t v =
    if Atomic.get on then begin
      if Atomic.get Wcore.w_on then Wcore.g_record t.w v;
      Atomic.set t.cell v
    end

  let value t = Atomic.get t.cell

  let reset t =
    Atomic.set t.cell 0.0;
    Wcore.g_reset t.w
end

module Histogram = struct
  type t = {
    bounds : float array;
    counts : int Atomic.t array;  (* bounds + 1 cells; last = overflow *)
    nobs : int Atomic.t;
    sum : float Atomic.t;
    w : Wcore.whist;
  }

  let default_bounds =
    Array.init 14 (fun i -> 0.001 *. (3.0 ** float_of_int i))

  let create bounds =
    {
      bounds;
      counts = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
      nobs = Atomic.make 0;
      sum = Atomic.make 0.0;
      w = Wcore.make_whist Counter.stripes;
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
      if Atomic.get Wcore.w_on then begin
        Wcore.h_record t.w ~nb1:(nb + 1) (Counter.stripe ()) !i x
      end;
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
    Atomic.set t.sum 0.0;
    Wcore.h_reset t.w
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
    (fun () -> C (Counter.create ()))
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

(* --- incremental snapshots ------------------------------------------ *)

type cursor = { mutable seen_roots : int }

let cursor () = { seen_roots = 0 }

(* the newest-first prefix of [l], returned oldest-first *)
let rec take_rev n l acc =
  if n <= 0 then acc
  else match l with [] -> acc | x :: tl -> take_rev (n - 1) tl (x :: acc)

let snapshot_delta (c : cursor) =
  Mutex.lock completed_mu;
  let total = List.length !completed in
  let fresh = take_rev (total - c.seen_roots) !completed [] in
  Mutex.unlock completed_mu;
  c.seen_roots <- total;
  snapshot_of_roots fresh

let reset () =
  Mutex.lock completed_mu;
  completed := [];
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

(* --- rolling windows: the read side --------------------------------- *)

module Window = struct
  let enabled () = Atomic.get Wcore.w_on
  let set_enabled v = Atomic.set Wcore.w_on v

  let configure ~bucket_ns =
    Atomic.set Wcore.bucket_ns (max 1_000_000 bucket_ns)

  let max_horizon_ns () =
    Int64.of_int ((Wcore.wbuckets - 1) * Atomic.get Wcore.bucket_ns)

  type view = {
    v_now_ns : int64;
    v_horizon_ns : int64;
    v_counters : (string * int) list;
    v_gauges : (string * float option) list;
    v_histograms : (string * Histogram.snap) list;
  }

  let read ?now_ns:now ~horizon_ns () =
    let now = match now with Some t -> t | None -> now_ns () in
    let horizon_ns =
      if Int64.compare horizon_ns (max_horizon_ns ()) > 0 then
        max_horizon_ns ()
      else horizon_ns
    in
    let e_now = Wcore.epoch_at now in
    let e_start = Wcore.epoch_at (Int64.sub now horizon_ns) in
    let e_start = max e_start (e_now - (Wcore.wbuckets - 1)) in
    let metrics = sorted_metrics () in
    let pick f = List.filter_map (fun (name, m) -> f name m) metrics in
    {
      v_now_ns = now;
      v_horizon_ns = horizon_ns;
      v_counters =
        pick (fun n m ->
            match m with
            | C c -> Some (n, Wcore.c_read c.Counter.w ~e_start ~e_now)
            | _ -> None);
      v_gauges =
        pick (fun n m ->
            match m with
            | G g -> Some (n, Wcore.g_read g.Gauge.w ~e_start ~e_now)
            | _ -> None);
      v_histograms =
        pick (fun n m ->
            match m with
            | H h ->
              let nb1 = Array.length h.Histogram.bounds + 1 in
              let counts, count, sum =
                Wcore.h_read h.Histogram.w ~nb1 ~e_start ~e_now
              in
              Some
                ( n,
                  {
                    Histogram.bounds = Array.copy h.Histogram.bounds;
                    counts;
                    count;
                    sum;
                  } )
            | _ -> None);
    }
end

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
