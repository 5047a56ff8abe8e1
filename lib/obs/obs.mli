(** Flow-wide observability: hierarchical spans, counters, gauges and
    histograms behind one process-global registry.

    Design constraints, in order:

    - {b Zero overhead when off.} Instrumentation is compiled in
      everywhere but every operation is a cheap branch on a disabled
      flag, so the uninstrumented flow is unchanged — bit-identical
      results, no allocation on the hot path.
    - {b Safe under [Domain]-parallel window solving.} All mutable state
      is either per-domain (the open-span stack, via [Domain.DLS]) or
      written through atomics (one cell per counter, gauge cells,
      histogram buckets). [Dist_opt.solve_batch] can fan spans and
      counter bumps out over domains with no locking on the hot path;
      per-domain span buffers are merged when a snapshot is taken,
      after the joins. Windowed ("last N seconds") views are not kept
      here: a reader differences two cumulative reads
      ([Serve.Telemetry] samples them), so recording costs nothing
      extra.
    - {b Zero dependencies.} Only the OCaml runtime and a 10-line C stub
      for [CLOCK_MONOTONIC]; the JSON exporter is [Json], in this
      library.

    Instrumentation never alters control flow: [with_span] re-raises the
    callback's exceptions after closing the span, and all recording is
    write-only until [snapshot]. *)

(** The JSON value type used by the trace exporter, re-exported so
    consumers can parse and inspect traces (see {!Json.parse}). *)
module Json : module type of Json

(** The schema-version tags of every machine-readable artifact the repo
    emits, re-exported so producers and consumers share one registry. *)
module Schemas : module type of Schemas

(** {1 Master switch} *)

(** [enabled ()] is the process-global instrumentation switch; initially
    [false]. *)
val enabled : unit -> bool

val set_enabled : bool -> unit

(** {1 Clock} *)

(** [now_ns ()] is the monotonic clock in nanoseconds since an arbitrary
    epoch (only differences are meaningful). *)
val now_ns : unit -> int64

(** {1 Spans} *)

(** Attribute value attached to a span. *)
type attr = [ `Int of int | `Float of float | `Str of string ]

module Span : sig
  (** A completed span: one timed region, with the regions it enclosed
      as children. Spans opened on a spawned domain form their own roots
      (a child domain cannot see its parent's open stack). *)
  type t = {
    name : string;
    start_ns : int64;
    end_ns : int64;
    attrs : (string * attr) list;
    children : t list;  (** in opening order *)
  }

  val duration_ns : t -> int64
end

(** [with_span name f] times [f] as a span nested under the current
    domain's innermost open span (a root span when there is none).
    Exceptions from [f] close the span and re-raise. When disabled this
    is exactly [f ()]. *)
val with_span : ?attrs:(string * attr) list -> string -> (unit -> 'a) -> 'a

(** [add_attr key v] attaches an attribute to the innermost open span of
    the calling domain; no-op when disabled or outside any span. *)
val add_attr : string -> attr -> unit

(** {1 Metrics}

    Metrics are created through the registry functions below, which
    get-or-create by name, so instrumentation sites may either cache the
    handle or re-look it up. All update operations are domain-safe and
    no-ops while disabled. *)

module Counter : sig
  (** Monotonically increasing integer: one atomic cell that every
      domain bumps. *)
  type t

  val incr : t -> unit
  val add : t -> int -> unit

  (** Exact once the writing domains have been joined. *)
  val value : t -> int
end

module Gauge : sig
  (** Last-written float value (e.g. an overflow ratio after routing). *)
  type t

  val set : t -> float -> unit
  val value : t -> float

  (** [writes t] counts the [set]s since start (or {!reset}): a reader
      holding an earlier count can tell whether the gauge was written
      since. *)
  val writes : t -> int
end

module Histogram : sig
  (** Bucketed distribution of float observations. Bucket [i] counts
      observations [<= bounds.(i)]; one extra bucket counts the rest. *)
  type t

  val observe : t -> float -> unit

  type snap = {
    bounds : float array;
    counts : int array;  (** length = [Array.length bounds + 1] *)
    count : int;
    sum : float;
  }

  val snap : t -> snap

  (** [percentile s q] estimates the [q]-quantile ([0 < q <= 1]) from
      the bucket counts by linear interpolation within the bucket;
      observations in the overflow bucket report the highest bound.

      Total on every snap: an empty snap — or a degenerate one with no
      bounds — has no quantiles, and the estimate is [Float.nan].
      Renderers must branch on [Float.is_nan]; the JSON exporter prints
      non-finite floats as [null], so an empty histogram's p50/p90/p99
      serialise as [null] rather than a fake 0. The trace exporter
      emits p50/p90/p99 of every histogram next to the raw buckets. *)
  val percentile : snap -> float -> float
end

(** [counter name] gets or creates the counter [name]. *)
val counter : string -> Counter.t

(** [gauge name] gets or creates the gauge [name]. *)
val gauge : string -> Gauge.t

(** [histogram ?bounds name] gets or creates the histogram [name];
    [bounds] applies on creation only (default: 14 exponential buckets
    from 0.001 to ~8000, suiting milliseconds). *)
val histogram : ?bounds:float array -> string -> Histogram.t

(** {1 Snapshot and export} *)

type snapshot = {
  spans : Span.t list;  (** completed roots, all domains, by start time *)
  counters : (string * int) list;      (** sorted by name *)
  gauges : (string * float) list;      (** sorted by name *)
  histograms : (string * Histogram.snap) list;  (** sorted by name *)
}

(** [snapshot ()] merges every domain's completed spans and all metric
    values into one immutable view. Spans still open (or owned by
    un-joined domains mid-flight) are not included. *)
val snapshot : unit -> snapshot

(** [metrics ()] is {!snapshot} without the spans ([spans = []]): it
    reads only the registry, so its cost does not grow with the span
    history. *)
val metrics : unit -> snapshot

(** {2 Incremental snapshots}

    A long-lived daemon scraped every few seconds must not re-walk its
    whole span history per scrape: a {!cursor} remembers how many root
    spans the caller has already consumed, and {!snapshot_delta} returns
    only the roots completed since — metric values are still cumulative
    (they are O(registry) to read, not O(history)). The scraper folds
    each delta into its own running aggregate (see [Serve.Telemetry]). *)

(** Consumption position in the completed-root-span history. Confine a
    cursor to one consumer; it is not safe to share between domains. *)
type cursor

(** A fresh cursor positioned before all history: the first
    [snapshot_delta] on it returns every completed root. *)
val cursor : unit -> cursor

(** [snapshot_delta c] is {!snapshot} restricted to the root spans
    completed since the previous call on [c] (metrics cumulative as
    always), advancing [c]. [reset] rewinds history; a cursor ahead of
    a reset history returns empty deltas until new roots complete. *)
val snapshot_delta : cursor -> snapshot

(** [reset ()] drops completed spans and zeroes every registered metric
    (gauge write counts included); handles stay valid. Open spans on
    other domains are unaffected. *)
val reset : unit -> unit

(** {1 Bounded ring}

    A small mutex-guarded ring of the most recent N values, for
    cross-domain recent-history buffers (the daemon's recent-job ring:
    the serve loop pushes, the admin domain reads). Not for hot paths —
    every operation takes the lock. *)

module Ring : sig
  type 'a t

  val create : int -> 'a t

  (** [push t v] appends [v], evicting the oldest value once the ring
      holds its capacity. *)
  val push : 'a t -> 'a -> unit

  val length : 'a t -> int

  (** Oldest first. *)
  val to_list : 'a t -> 'a list
end

(** Per-name span aggregate over a whole span forest. *)
type span_agg = {
  calls : int;
  total_ns : int64;
  min_ns : int64;
  max_ns : int64;
}

(** [aggregate_spans roots] folds every span of the forest (children
    included) into per-name aggregates, sorted by descending total
    time. *)
val aggregate_spans : Span.t list -> (string * span_agg) list

(** [trace_json snap] is the machine-readable trace (schema documented
    in the README's "Measuring performance" section). *)
val trace_json : snapshot -> Json.t

(** [write_trace path] takes a snapshot and writes its JSON trace to
    [path]. *)
val write_trace : string -> unit
