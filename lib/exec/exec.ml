module Deque = Deque

(* Metric handles are created once: bumps happen on worker domains and a
   per-call registry lookup would contend on the registry lock. *)
let c_tasks = Obs.counter "exec.tasks"
let c_steals = Obs.counter "exec.steals"
let c_spawns = Obs.counter "exec.domain_spawns"
let g_pool_size = Obs.gauge "exec.pool_size"
let g_queue_max = Obs.gauge "exec.queue_depth_max"

(* --- tasks and their cells --- *)

type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn

type 'a cell = {
  thunk : unit -> 'a;
  state : 'a state Atomic.t;
  claimed : bool Atomic.t;  (* exactly one executor wins this CAS *)
  mu : Mutex.t;
  cond : Condition.t;  (* signalled on every state transition *)
}

type task = Task : 'a cell -> task

let resolve c st =
  Atomic.set c.state st;
  Mutex.lock c.mu;
  Condition.broadcast c.cond;
  Mutex.unlock c.mu

(* Pool-side execution: claim, run under a span. Exceptions land in the
   cell, never in the worker loop. *)
let run_task (Task c) =
  if Atomic.compare_and_set c.claimed false true then begin
    Obs.Counter.incr c_tasks;
    match Obs.with_span "exec.task" c.thunk with
    | v -> resolve c (Done v)
    | exception e -> resolve c (Failed e)
  end

(* --- the pool --- *)

type pool = {
  n_workers : int;
  deques : task Deque.t array;  (* one per worker, stealable by all *)
  inj : task Queue.t;           (* external submissions; guarded by mu *)
  mu : Mutex.t;
  work_cond : Condition.t;      (* "there may be work" / shutdown *)
  space_cond : Condition.t;     (* the bounded injector has space *)
  mutable q_max : int;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

let queue_capacity = Atomic.make 4096
let set_queue_capacity n = Atomic.set queue_capacity (max 1 n)
let requested_jobs = Atomic.make 0 (* 0 = auto *)
let auto_jobs = lazy (Domain.recommended_domain_count ())

let jobs () =
  let r = Atomic.get requested_jobs in
  if r > 0 then r else Lazy.force auto_jobs

let pool_mu = Mutex.create ()
let pool : pool option ref = ref None
let exit_hook = ref false

(* Worker identity of the calling domain, if any. *)
let self_key : (pool * int) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let has_work p =
  Queue.length p.inj > 0 || Array.exists (fun d -> Deque.size d > 0) p.deques

(* Move a small batch from the injector to [deque] (when the caller is
   a worker) so that other workers can steal their share; run the first
   task ourselves. *)
let take_injector p ~deque =
  Mutex.lock p.mu;
  if Queue.length p.inj = 0 then begin
    Mutex.unlock p.mu;
    None
  end
  else begin
    let first = Queue.pop p.inj in
    (match deque with
    | Some d ->
      let extra = min 3 (Queue.length p.inj) in
      for _ = 1 to extra do
        Deque.push d (Queue.pop p.inj)
      done;
      if extra > 0 then Condition.broadcast p.work_cond
    | None -> ());
    Condition.broadcast p.space_cond;
    Mutex.unlock p.mu;
    Some first
  end

let steal_cursor = Atomic.make 0

let try_steal p ~self =
  let n = Array.length p.deques in
  let start = Atomic.fetch_and_add steal_cursor 1 in
  let rec go k =
    if k >= n then None
    else begin
      let ix = (start + k) mod n in
      if Some ix = self then go (k + 1)
      else
        match Deque.steal p.deques.(ix) with
        | Some _ as t ->
          Obs.Counter.incr c_steals;
          t
        | None -> go (k + 1)
    end
  in
  go 0

let rec worker_loop p ix =
  match Deque.pop p.deques.(ix) with
  | Some t ->
    run_task t;
    worker_loop p ix
  | None -> (
    match take_injector p ~deque:(Some p.deques.(ix)) with
    | Some t ->
      run_task t;
      worker_loop p ix
    | None -> (
      match try_steal p ~self:(Some ix) with
      | Some t ->
        run_task t;
        worker_loop p ix
      | None ->
        Mutex.lock p.mu;
        if (not p.stop) && not (has_work p) then
          Condition.wait p.work_cond p.mu;
        let stop = p.stop in
        Mutex.unlock p.mu;
        if not stop then worker_loop p ix))

let make_pool n =
  let p =
    {
      n_workers = n;
      deques = Array.init n (fun _ -> Deque.create ());
      inj = Queue.create ();
      mu = Mutex.create ();
      work_cond = Condition.create ();
      space_cond = Condition.create ();
      q_max = 0;
      stop = false;
      domains = [];
    }
  in
  Obs.Gauge.set g_pool_size (float_of_int (n + 1));
  p.domains <-
    List.init n (fun ix ->
        Obs.Counter.incr c_spawns;
        Domain.spawn (fun () ->
            Domain.DLS.set self_key (Some (p, ix));
            worker_loop p ix));
  p

let teardown p =
  Mutex.lock p.mu;
  p.stop <- true;
  Condition.broadcast p.work_cond;
  Condition.broadcast p.space_cond;
  Mutex.unlock p.mu;
  List.iter Domain.join p.domains

let shutdown () =
  Mutex.lock pool_mu;
  let p = !pool in
  pool := None;
  Mutex.unlock pool_mu;
  match p with Some p -> teardown p | None -> ()

(* Only called with [jobs () > 1], so the pool always has >= 1 worker. *)
let get_pool () =
  Mutex.lock pool_mu;
  let target = jobs () - 1 in
  let p =
    match !pool with
    | Some p when p.n_workers = target -> p
    | other ->
      (match other with
      | Some stale ->
        pool := None;
        Mutex.unlock pool_mu;
        teardown stale;
        Mutex.lock pool_mu
      | None -> ());
      if not !exit_hook then begin
        exit_hook := true;
        at_exit shutdown
      end;
      let np = make_pool target in
      pool := Some np;
      np
  in
  Mutex.unlock pool_mu;
  p

let set_jobs n =
  let n = max 1 n in
  Atomic.set requested_jobs n;
  Mutex.lock pool_mu;
  let stale =
    match !pool with
    | Some p when p.n_workers <> n - 1 ->
      pool := None;
      Some p
    | _ -> None
  in
  Mutex.unlock pool_mu;
  match stale with Some p -> teardown p | None -> ()

(* --- submission --- *)

let enqueue p t =
  match Domain.DLS.get self_key with
  | Some (wp, ix) when wp == p ->
    (* nested submission from a worker: its own deque, no bound needed
       (the worker drains it itself; thieves help) *)
    Deque.push p.deques.(ix) t;
    Mutex.lock p.mu;
    Condition.broadcast p.work_cond;
    Mutex.unlock p.mu
  | _ ->
    Mutex.lock p.mu;
    while Queue.length p.inj >= Atomic.get queue_capacity && not p.stop do
      Condition.wait p.space_cond p.mu
    done;
    if not p.stop then begin
      Queue.push t p.inj;
      let len = Queue.length p.inj in
      if len > p.q_max then begin
        p.q_max <- len;
        Obs.Gauge.set g_queue_max (float_of_int len)
      end;
      Condition.signal p.work_cond
    end;
    (* on stop: leave the task unenqueued; its awaiter runs it inline *)
    Mutex.unlock p.mu

(* --- futures --- *)

(* The awaiting caller (a) races workers to claim-and-run unstarted
   tasks inline, which is what makes await deadlock-free with no pool
   at all, and (b) helps run other tasks while a worker holds its
   claim. Sequential fallback for Failed lives here too. *)

let run_fallback (c : _ cell) =
  Mutex.lock c.mu;
  match Atomic.get c.state with
  | Done v ->
    (* another awaiter recomputed first *)
    Mutex.unlock c.mu;
    v
  | _ -> (
    match c.thunk () with
    | v ->
      Atomic.set c.state (Done v);
      Condition.broadcast c.cond;
      Mutex.unlock c.mu;
      v
    | exception e ->
      Mutex.unlock c.mu;
      raise e)

(* Help with one task from anywhere in the pool; false when idle. *)
let help_once () =
  Mutex.lock pool_mu;
  let p = !pool in
  Mutex.unlock pool_mu;
  match p with
  | None -> false
  | Some p -> (
    let own, self =
      match Domain.DLS.get self_key with
      | Some (wp, ix) when wp == p -> (Deque.pop p.deques.(ix), Some ix)
      | _ -> (None, None)
    in
    match own with
    | Some t ->
      run_task t;
      true
    | None -> (
      match take_injector p ~deque:None with
      | Some t ->
        run_task t;
        true
      | None -> (
        match try_steal p ~self with
        | Some t ->
          run_task t;
          true
        | None -> false)))

let rec await_cell c =
  match Atomic.get c.state with
  | Done v -> v
  | Failed _ -> run_fallback c
  | Pending ->
    if Atomic.compare_and_set c.claimed false true then begin
      (* unstarted: run it inline *)
      Obs.Counter.incr c_tasks;
      match c.thunk () with
      | v ->
        resolve c (Done v);
        v
      | exception e ->
        resolve c (Failed e);
        raise e
    end
    else begin
      (* an executor holds the claim: help elsewhere, else sleep until
         the resolution broadcast *)
      if not (help_once ()) then begin
        Mutex.lock c.mu;
        (match Atomic.get c.state with
        | Pending -> Condition.wait c.cond c.mu
        | _ -> ());
        Mutex.unlock c.mu
      end;
      await_cell c
    end

module Future = struct
  type _ t =
    | Pure : 'a -> 'a t
    | Cell : 'a cell -> 'a t
    | Map : ('a -> 'b) * 'a t -> 'b t
    | All : 'a t list -> 'a list t

  let return v = Pure v
  let map f t = Map (f, t)
  let all ts = All ts

  let rec await : type a. a t -> a = function
    | Pure v -> v
    | Cell c -> await_cell c
    | Map (f, t) -> f (await t)
    | All ts -> List.map (fun t -> await t) ts

  let rec poll : type a. a t -> a option = function
    | Pure v -> Some v
    | Cell c -> (
      match Atomic.get c.state with Done v -> Some v | _ -> None)
    | Map (f, t) -> Option.map f (poll t)
    | All ts ->
      let vs = List.map (fun t -> poll t) ts in
      if List.for_all Option.is_some vs then Some (List.map Option.get vs)
      else None
end

let submit thunk =
  let c =
    {
      thunk;
      state = Atomic.make Pending;
      claimed = Atomic.make false;
      mu = Mutex.create ();
      cond = Condition.create ();
    }
  in
  if jobs () > 1 then enqueue (get_pool ()) (Task c);
  Future.Cell c

(* --- domain-local slots --- *)

module Dls = struct
  type 'a slot = 'a Domain.DLS.key

  let create init = Domain.DLS.new_key init
  let get slot = Domain.DLS.get slot
end

(* --- deterministic loops --- *)

let parallel_for ?(chunk = 1) n body =
  if n > 0 then begin
    let chunk = max 1 chunk in
    if jobs () <= 1 || n <= chunk then
      for i = 0 to n - 1 do
        body i
      done
    else begin
      let nchunks = (n + chunk - 1) / chunk in
      let futs =
        List.init nchunks (fun ci ->
            submit (fun () ->
                let hi = min n ((ci + 1) * chunk) - 1 in
                for i = ci * chunk to hi do
                  body i
                done))
      in
      List.iter Future.await futs
    end
  end

let parallel_map ?chunk f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let j = jobs () in
    if j <= 1 || n = 1 then Array.map f xs
    else begin
      let chunk =
        match chunk with
        | Some c -> max 1 c
        | None -> max 1 ((n + (4 * j) - 1) / (4 * j))
      in
      let out = Array.make n None in
      parallel_for ~chunk n (fun i -> out.(i) <- Some (f xs.(i)));
      Array.map (function Some v -> v | None -> assert false) out
    end
  end

(* --- background service domains --- *)

module Bg = struct
  type t = { stop_flag : bool Atomic.t; dom : unit Domain.t }

  (* Deliberately does not bump exec.domain_spawns: that counter means
     "pool workers created" (a test asserts it never moves mid-run),
     and it is embedded in traced-job replies — a service domain for
     the admin plane must not perturb job payloads. *)
  let spawn body =
    let stop_flag = Atomic.make false in
    let dom =
      Domain.spawn (fun () ->
          body ~should_stop:(fun () -> Atomic.get stop_flag))
    in
    { stop_flag; dom }

  let stop t = Atomic.set t.stop_flag true

  let join t =
    stop t;
    Domain.join t.dom
end
