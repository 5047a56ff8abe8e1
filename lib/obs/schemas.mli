(** Central registry of the JSON schema tags emitted by this repository.

    Every machine-readable artifact the flow writes carries a top-level
    ["schema"] field; the version tags used to be string literals
    scattered over the emitters, which made it impossible to check that
    a consumer and its producer agree. All tags now live here, and a
    test asserts that every emitter's ["schema"] field round-trips
    through {!of_string}. Bump a tag's [/N] suffix when its document
    shape changes incompatibly. *)

type id =
  | Trace          (** [Obs.trace_json]: spans + metrics ([--trace]) *)
  | Lint           (** [Lint.to_json]: the vm1lint v2 report (findings
                       with taint-chain witnesses and fingerprints) *)
  | Lint_baseline
      (** [Lint.baseline_json]: the committed ratchet baseline
          ([lint_baseline.json]) of known-debt finding fingerprints;
          [@lint] fails only on findings not in it *)
  | Trace_report   (** [Trace.Profile.to_json]: aggregated trace profile *)
  | Jobs
      (** the [vm1d] batch-service wire format: both the job requests a
          client sends and the replies the daemon streams back (one JSON
          object per line; full spec in PROTOCOL.md) *)
  | Bench_manifest
      (** [Io.Manifest]: a benchmark manifest naming designs (generator
          specs or external DEF/LEF paths) and the arch/util/scale axes
          an experiment matrix sweeps *)
  | Expt_matrix
      (** [expt]: the per-cell QoR report swept from a benchmark
          manifest (the committed test/matrix_golden.json) *)
  | Metrics
      (** [Serve.Telemetry]: the admin-plane [metrics] reply —
          cumulative + windowed metric views with latency percentiles
          (spec in PROTOCOL.md, "The admin plane") *)
  | Health
      (** [Serve.Telemetry]: the admin-plane [health] reply —
          readiness, uptime, in-flight/queue depth, cache hit rates and
          GC stats (spec in PROTOCOL.md, "The admin plane") *)
  | Joblog
      (** [Serve.Telemetry]: one structured access-log record per
          completed job, written line-delimited to [vm1d --job-log]
          (spec in PROTOCOL.md, "The job log") *)

(** All tags, in declaration order. *)
val all : id list

val to_string : id -> string

(** [of_string s] recognises exactly the {!to_string} image. *)
val of_string : string -> id option

(** {1 Shorthands} — the [to_string] of each tag. *)

val trace : string
val lint : string
val lint_baseline : string
val trace_report : string
val jobs : string
val bench_manifest : string
val expt_matrix : string
val metrics : string
val health : string
val joblog : string
