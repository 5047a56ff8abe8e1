(** Domain-pool scheduler: the execution substrate under every
    parallel loop of the flow (DistOpt window batches,
    experiment-matrix cells, [vm1d] jobs). The router schedules nothing
    on it; it only keeps its search context in a {!Dls} slot.

    - {b One pool per process, spawned once.} Workers are persistent
      domains; after warm-up no [Domain.spawn] happens mid-run (the
      [exec.domain_spawns] counter proves it).
    - {b Deterministic results.} [parallel_map] and [parallel_for]
      write results by index, so [--jobs N] is bit-identical to
      [--jobs 1]. With [jobs () <= 1] nothing is spawned and
      everything runs inline.
    - {b One shared FIFO queue} under one mutex, served by
      [jobs () - 1] worker domains. There is no stealing: the tasks
      (window solves, matrix cells, jobs) are coarse.
    - {b Awaiting helps.} [Future.await] runs a task nobody has
      started yet itself; while another domain runs it, the awaiter
      runs queued tasks and sleeps only when the queue is empty. This
      keeps nested parallel calls from worker domains deadlock-free.
    - {b A raising task fails once.} [Future.await] re-raises its
      exception; the thunk is never re-run.

    Instrumented through [lib/obs] (all no-ops until [Obs.set_enabled]):
    counters [exec.tasks], [exec.domain_spawns]; gauge [exec.pool_size];
    span [exec.task] around each task run by a worker or by a helping
    awaiter (a root span of its worker domain, see the span-forest notes
    in ARCHITECTURE.md). *)

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

(** [shutdown ()] stops and joins the worker domains, if any. Pending
    pool tasks are not lost: their awaiters run them inline. Installed
    via [at_exit] automatically; call it directly to force a respawn or
    to make a clean point in tests. *)
val shutdown : unit -> unit

(** {1 Futures} *)

module Future : sig
  (** A handle on a submitted task or a pure value. *)
  type 'a t

  (** [await t] returns the task's value. It runs the task inline if no
      worker has started it, so [await] always makes progress, even
      with no pool. If the task raised, [await] re-raises that
      exception. *)
  val await : 'a t -> 'a

  (** [return v] is an already-completed future holding [v]. *)
  val return : 'a -> 'a t
end

(** [submit f] schedules [f] on the pool and returns its future. With
    [jobs () <= 1] nothing is enqueued and [await] runs [f] inline.
    [f] runs exactly once. *)
val submit : (unit -> 'a) -> 'a Future.t

(** {1 Domain-local slots} *)

(** One lazily-initialised value per domain: the confinement tool for
    per-domain caches used from pool workers (e.g. the window
    memo-cache of the batch service, the router's search context).
    [get] never shares a value across domains, so slot contents need no
    locking — the same domain-confinement argument as [Serve.Cache],
    extended to code that runs on the pool. *)
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
