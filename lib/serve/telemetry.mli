(** The daemon's admin plane: live views over the flow's observability
    state, plus the structured per-job access log.

    One [Telemetry.t] lives alongside one {!Daemon.serve} loop. The
    serve loop calls {!record_job} as it emits each reply; an admin
    consumer (the [vm1d --admin-socket] accept loop, or a test calling
    {!handle} directly) renders the three admin verbs. The two sides
    touch disjoint state — the job ring is the only shared structure,
    and it is the locked {!Obs.Ring} — so neither blocks the other.

    The scrape-does-not-perturb invariant (ARCHITECTURE.md): {!handle}
    only {e reads} observability state. It bumps no counter, sets no
    gauge, opens no span, and never runs on the pool, so job replies
    are byte-identical whether or not anything is scraping — checked
    by [test_serve] in-process and by the [@telemetry-smoke] daemon
    run.

    Windowed views ("last 10 s / 60 s") come from samples of the
    cumulative metric values, not from state kept on the metric write
    path: {!create} takes one sample and {!tick} adds one whenever the
    newest is at least 1 s old, keeping the newest 64. A window over
    horizon H is the current cumulative value minus the newest sample
    taken at or before now - H (the oldest sample when none is that
    old); a windowed gauge is its current value when it was set since
    that sample and [null] otherwise.

    Confinement: {!record_job} must be called from the serve loop only
    (it owns the sequence number and the log channel); {!tick} and
    {!handle} from one admin consumer at a time (they own the span
    cursor and the samples). [vm1d] satisfies both by construction —
    one serve loop, one admin domain serving connections
    sequentially. *)

type t

(** One access-log record, as written to [--job-log] and returned by
    the [jobs] verb (wire spec: [vm1dp-joblog/1] in PROTOCOL.md).
    Every field except the two wall-clock spans is deterministic for a
    given request stream at any [--jobs]; tests mask [jr_queue_ms] /
    [jr_execute_ms] the way [@perf-gate] bands times. *)
type job_record = {
  jr_seq : int;                  (** daemon-side arrival index, from 1 *)
  jr_id : string option;         (** request id; [None] when unparseable *)
  jr_source : string;  (** [generated | external-inline | external-path
                           | invalid] *)
  jr_design : string option;
  jr_solver : string option;     (** solver actually requested, post
                                     [--solver] default *)
  jr_status : string;            (** [ok] or [error] *)
  jr_error_code : string option;
  jr_digest : string option;     (** result QoR digest *)
  jr_cache : (string * bool) list;  (** artifact cache outcomes *)
  jr_queue_ms : float;           (** submit → execution start *)
  jr_execute_ms : float;         (** execution start → reply ready *)
}

val job_record_json : job_record -> Obs.Json.t

(** [create ?ring_capacity ?job_log ()] — [ring_capacity] bounds the
    recent-job ring (default 64); [job_log] is an open channel that
    receives one [vm1dp-joblog/1] line per job, flushed per line. The
    caller opens the channel; {!close} closes it. Takes the first
    window sample. *)
val create : ?ring_capacity:int -> ?job_log:out_channel -> unit -> t

val close : t -> unit

(** [record_job t ~queue_ns ~exec_ns reply] appends the reply's record
    to the ring and the job log. Serve-loop confined. *)
val record_job :
  t -> queue_ns:int64 -> exec_ns:int64 -> Protocol.reply -> unit

(** [tick ?now_ns t] samples the cumulative metrics when the newest
    sample is at least 1 s older than [now_ns] (default: the clock),
    dropping the oldest beyond 64. Cheap when no sample is due; the
    admin loop calls it on every wake. *)
val tick : ?now_ns:int64 -> t -> unit

(** One windowed view over every registered metric, sorted by name: a
    counter's bumps, a gauge's value if it was set inside the horizon,
    a histogram's observations (so {!Obs.Histogram.percentile} is
    [nan] on an empty window). The [metrics] verb renders one per
    horizon, 10 s and 60 s. *)
type window = {
  w_horizon_s : int;
  w_counters : (string * int) list;
  w_gauges : (string * float option) list;
  w_histograms : (string * Obs.Histogram.snap) list;
}

(** [window ?now_ns t ~horizon_s] reads the metrics now and differences
    them against the samples; [now_ns] overrides the clock. Does not
    tick. *)
val window : ?now_ns:int64 -> t -> horizon_s:int -> window

(** [handle t verb] ticks, then renders one admin request — [metrics],
    [health] or [jobs] (PROTOCOL.md, "The admin plane") — as the reply
    document; an unknown verb yields an [{"error": ...}] object.
    Read-only and non-blocking with respect to the job pipeline. *)
val handle : t -> string -> Obs.Json.t
