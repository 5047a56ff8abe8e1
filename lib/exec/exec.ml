(* Metric handles are created once: bumps happen on worker domains and a
   per-call registry lookup would contend on the registry lock. *)
let c_tasks = Obs.counter "exec.tasks"
let c_spawns = Obs.counter "exec.domain_spawns"
let g_pool_size = Obs.gauge "exec.pool_size"

(* --- tasks and their cells --- *)

type 'a state =
  | Queued  (* not claimed yet *)
  | Running  (* claimed: exactly one executor won the CAS out of Queued *)
  | Done of 'a
  | Failed of exn

type 'a cell = {
  thunk : unit -> 'a;
  state : 'a state Atomic.t;
  mu : Mutex.t;
  cond : Condition.t;  (* broadcast when the task resolves *)
}

type task = Task : 'a cell -> task

let claim c = Atomic.compare_and_set c.state Queued Running

let resolve c st =
  Atomic.set c.state st;
  Mutex.lock c.mu;
  Condition.broadcast c.cond;
  Mutex.unlock c.mu

(* Only the claimant calls this. Exceptions land in the cell, never in
   the worker loop. *)
let execute c run =
  Obs.Counter.incr c_tasks;
  resolve c (match run c.thunk with v -> Done v | exception e -> Failed e)

let run_task (Task c) = if claim c then execute c (Obs.with_span "exec.task")

(* --- the pool: one FIFO queue, served by every worker --- *)

type pool = {
  n_workers : int;
  queue : task Queue.t;  (* guarded by mu *)
  mu : Mutex.t;
  work : Condition.t;  (* a task was queued, or stop was raised *)
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

let requested_jobs = Atomic.make 0 (* 0 = auto *)
let auto_jobs = lazy (Domain.recommended_domain_count ())

let jobs () =
  let r = Atomic.get requested_jobs in
  if r > 0 then r else Lazy.force auto_jobs

(* [pool_mu] serialises spawning and teardown; readers that only want
   the live pool (helping awaiters) read the atomic. *)
let pool_mu = Mutex.create ()
let pool : pool option Atomic.t = Atomic.make None

let take p =
  Mutex.lock p.mu;
  let t = Queue.take_opt p.queue in
  Mutex.unlock p.mu;
  t

(* Workers drain the queue before honouring [stop]. *)
let rec worker_loop p =
  Mutex.lock p.mu;
  while Queue.is_empty p.queue && not p.stop do
    Condition.wait p.work p.mu
  done;
  let t = Queue.take_opt p.queue in
  Mutex.unlock p.mu;
  match t with
  | Some t ->
    run_task t;
    worker_loop p
  | None -> ()

let make_pool n =
  let p =
    {
      n_workers = n;
      queue = Queue.create ();
      mu = Mutex.create ();
      work = Condition.create ();
      stop = false;
      domains = [];
    }
  in
  Obs.Gauge.set g_pool_size (float_of_int (n + 1));
  p.domains <-
    List.init n (fun _ ->
        Obs.Counter.incr c_spawns;
        Domain.spawn (fun () -> worker_loop p));
  p

let teardown p =
  Mutex.lock p.mu;
  p.stop <- true;
  Condition.broadcast p.work;
  Mutex.unlock p.mu;
  List.iter Domain.join p.domains

(* Unpublish the live pool if [keep] rejects it, then join it. *)
let retire keep =
  Mutex.lock pool_mu;
  let stale =
    match Atomic.get pool with
    | Some p when not (keep p) ->
      Atomic.set pool None;
      Some p
    | _ -> None
  in
  Mutex.unlock pool_mu;
  Option.iter teardown stale

let shutdown () = retire (fun _ -> false)
let () = at_exit shutdown

(* Only called with [jobs () > 1], so the pool always has >= 1 worker. *)
let get_pool () =
  let target = jobs () - 1 in
  match Atomic.get pool with
  | Some p when p.n_workers = target -> p
  | _ ->
    retire (fun p -> p.n_workers = target);
    Mutex.lock pool_mu;
    let p =
      match Atomic.get pool with
      | Some p -> p (* another domain spawned it first *)
      | None ->
        let p = make_pool target in
        Atomic.set pool (Some p);
        p
    in
    Mutex.unlock pool_mu;
    p

let set_jobs n =
  let n = max 1 n in
  Atomic.set requested_jobs n;
  retire (fun p -> p.n_workers = n - 1)

(* --- futures --- *)

(* The awaiter claims and runs a still-queued task itself, which keeps
   await deadlock-free with no pool and under nested parallel calls.
   While another domain runs the task, the awaiter runs queued tasks
   and sleeps only when the queue is empty: otherwise the caller of
   [parallel_for] idles behind a worker that always takes the next
   chunk first. *)
let rec await_cell c =
  match Atomic.get c.state with
  | Done v -> v
  | Failed e -> raise e
  | Queued when claim c ->
    execute c (fun f -> f ());
    await_cell c
  | Queued | Running ->
    (match Option.bind (Atomic.get pool) take with
    | Some t -> run_task t
    | None ->
      Mutex.lock c.mu;
      (match Atomic.get c.state with
      | Running -> Condition.wait c.cond c.mu
      | _ -> ());
      Mutex.unlock c.mu);
    await_cell c

module Future = struct
  type 'a t =
    | Pure of 'a
    | Cell of 'a cell

  let return v = Pure v
  let await = function Pure v -> v | Cell c -> await_cell c
end

let submit thunk =
  let c =
    {
      thunk;
      state = Atomic.make Queued;
      mu = Mutex.create ();
      cond = Condition.create ();
    }
  in
  if jobs () > 1 then begin
    let p = get_pool () in
    Mutex.lock p.mu;
    (* a stopped pool takes nothing; the awaiter runs the task itself *)
    if not p.stop then begin
      Queue.push (Task c) p.queue;
      Condition.signal p.work
    end;
    Mutex.unlock p.mu
  end;
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
