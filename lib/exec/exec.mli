(** Work-stealing domain-pool scheduler: the execution substrate under
    every parallel hot loop of the flow (DistOpt window batches, the
    region-sharded routing pass, the benchmark harness).

    Design constraints, in order:

    - {b One pool per process, spawned once.} Workers are persistent
      domains; after warm-up no [Domain.spawn] happens mid-run (the
      [exec.domain_spawns] counter proves it). Spawn-per-batch, which
      the first DistOpt implementation paid, is exactly what this
      library removes.
    - {b Deterministic results.} [parallel_map] and [parallel_for]
      write results by index, so the outcome is identical to the
      sequential loop for every pool size — callers rely on
      [--jobs N] being bit-identical to [--jobs 1].
    - {b Graceful degradation to sequential execution.} With
      [jobs () <= 1] nothing is spawned and everything runs inline. A
      task whose worker raised is re-run sequentially by the awaiting
      caller: [Future.await] never crashes the pool and never hangs a
      join.
    - {b Work stealing, bounded injection.} Each worker owns a
      Chase–Lev deque ({!Deque}); idle workers steal. External
      submissions go through a bounded queue — a full queue blocks the
      submitter (backpressure) instead of growing without bound.

    Instrumented through [lib/obs] (all no-ops until [Obs.set_enabled]):
    counters [exec.tasks], [exec.steals], [exec.domain_spawns]; gauges [exec.pool_size], [exec.queue_depth_max];
    span [exec.task] around each pool-executed task (a root span of its
    worker domain, see the span-forest notes in ARCHITECTURE.md). *)

(** The work-stealing deque the pool is built on, re-exported for
    direct use and for the deque unit/property tests. *)
module Deque : module type of Deque

(** {1 Pool configuration} *)

(** [jobs ()] is the target parallelism: the configured value, or
    [Domain.recommended_domain_count ()] when unset. The pool runs
    [jobs () - 1] worker domains; the submitting domain is the
    remaining unit of parallelism (it claims and runs tasks while
    awaiting). [1] means fully sequential, nothing spawned. *)
val jobs : unit -> int

(** [set_jobs n] sets the target parallelism (clamped to >= 1). If a
    pool of a different size is live it is shut down; the next parallel
    call respawns at the new size. *)
val set_jobs : int -> unit

(** [set_queue_capacity n] bounds the external submission queue
    (default 4096, clamped to >= 1); submitters block while it is full. *)
val set_queue_capacity : int -> unit

(** [shutdown ()] stops and joins the worker domains, if any. Pending
    pool tasks are not lost: their awaiters run them inline. Installed
    via [at_exit] automatically; call it directly to force a respawn or
    to make a clean point in tests. *)
val shutdown : unit -> unit

(** {1 Futures} *)

module Future : sig
  (** A handle on a submitted task (or a pure/derived value). *)
  type 'a t

  (** [await t] returns the task's value, claiming and running it
      inline if no worker got to it first — so [await] always makes
      progress, even with no pool. If the pool's run raised, the thunk
      is re-run sequentially by the caller (the sequential-fallback
      guarantee); an exception from that sequential run propagates. *)
  val await : 'a t -> 'a

  (** [poll t] is [Some v] once the value is available, without
      blocking or helping. *)
  val poll : 'a t -> 'a option

  (** [return v] is an already-completed future holding [v]; [await]
      and [poll] yield it immediately. *)
  val return : 'a -> 'a t

  (** [map f t] is a future for [f] applied to [t]'s value. [f] runs
      in the caller on every [await] (or successful [poll]) — it is not
      memoised, so it should be cheap and pure. *)
  val map : ('a -> 'b) -> 'a t -> 'b t

  (** [all ts] is a future for the values of [ts], in order. Awaiting
      it awaits each in turn (helping inline as usual); there is no
      early exit on failure. *)
  val all : 'a t list -> 'a list t
end

(** [submit f] schedules [f] on the pool and returns its future. With
    [jobs () <= 1] nothing is enqueued and [await] runs [f] inline.
    Thunks must tolerate being re-run when they raise (the fallback
    path); pure thunks and idempotent writes qualify. *)
val submit : (unit -> 'a) -> 'a Future.t

(** {1 Domain-local slots} *)

(** One lazily-initialised value per domain: the confinement tool for
    per-domain caches used from pool workers (e.g. the window
    memo-cache of the batch service). [get] never shares a value
    across domains, so slot contents need no locking — the same
    domain-confinement argument as [Serve.Cache], extended to code
    that runs on the pool. *)
module Dls : sig
  type 'a slot

  (** [create init] declares a slot; [init] runs once per domain, on
      that domain's first [get]. *)
  val create : (unit -> 'a) -> 'a slot

  (** [get slot] is the calling domain's instance. *)
  val get : 'a slot -> 'a
end

(** {1 Deterministic data-parallel loops} *)

(** [parallel_map ?chunk f xs] is [Array.map f xs], computed in chunks
    across the pool. Results are written by index, so the output is
    identical for every [jobs] setting; [chunk] defaults to about four
    chunks per unit of parallelism. *)
val parallel_map : ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array

(** [parallel_for ?chunk n body] runs [body i] for [i] in [0..n-1]
    across the pool ([chunk] consecutive indices per task, default 1 —
    suited to coarse tasks like window solves). The caller returns only
    after every index completed. [body] must be safe to run
    concurrently for distinct indices. *)
val parallel_for : ?chunk:int -> int -> (int -> unit) -> unit

(** {1 Background service domains}

    A long-running side loop (the daemon's admin plane) needs a domain
    of its own, outside the pool: pool tasks must stay short-lived or
    they starve job execution. [Bg] is the sanctioned wrapper — a
    spawned domain plus a cooperative stop flag. Unlike pool workers,
    a [Bg] spawn does not move [exec.domain_spawns]: that counter means
    "pool workers created" and is embedded in traced-job replies, which
    must be byte-identical whether or not a service domain is running. *)

module Bg : sig
  type t

  (** [spawn body] starts [body] on a fresh domain. [body] must poll
      [should_stop] at every blocking point (e.g. each select timeout)
      and return promptly once it reads [true]. *)
  val spawn : (should_stop:(unit -> bool) -> unit) -> t

  (** [stop t] raises the stop flag without waiting. *)
  val stop : t -> unit

  (** [join t] raises the stop flag and waits for the domain to
      return. Idempotent with [stop]; call exactly once. *)
  val join : t -> unit
end
