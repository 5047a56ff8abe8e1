type id =
  | Trace
  | Lint
  | Lint_baseline
  | Trace_report
  | Jobs
  | Bench_manifest
  | Expt_matrix
  | Metrics
  | Health
  | Joblog

let all =
  [
    Trace;
    Lint;
    Lint_baseline;
    Trace_report;
    Jobs;
    Bench_manifest;
    Expt_matrix;
    Metrics;
    Health;
    Joblog;
  ]

let to_string = function
  | Trace -> "vm1dp-trace/1"
  | Lint -> "vm1dp-lint/2"
  | Lint_baseline -> "vm1dp-lint-baseline/1"
  | Trace_report -> "vm1dp-trace-report/1"
  | Jobs -> "vm1dp-jobs/1"
  | Bench_manifest -> "vm1dp-bench-manifest/1"
  | Expt_matrix -> "vm1dp-expt-matrix/1"
  | Metrics -> "vm1dp-metrics/1"
  | Health -> "vm1dp-health/1"
  | Joblog -> "vm1dp-joblog/1"

let of_string s = List.find_opt (fun id -> String.equal (to_string id) s) all
let trace = to_string Trace
let lint = to_string Lint
let lint_baseline = to_string Lint_baseline
let trace_report = to_string Trace_report
let jobs = to_string Jobs
let bench_manifest = to_string Bench_manifest
let expt_matrix = to_string Expt_matrix
let metrics = to_string Metrics
let health = to_string Health
let joblog = to_string Joblog
