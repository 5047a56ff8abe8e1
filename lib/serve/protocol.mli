(** Codec for the [vm1dp-jobs/1] wire format of the batch-optimization
    daemon ([bin/vm1d]).

    The format is line-delimited JSON: every request and every reply is
    one JSON object on one ['\n']-terminated line, tagged with the
    schema [Obs.Schemas.jobs]. The full field-by-field specification —
    framing, defaults, error replies, versioning rules — lives in
    PROTOCOL.md at the repository root; this module is its executable
    form, and the protocol tests in [test/test_serve.ml] hold the two
    together.

    Parsing is total: any line, however malformed, maps to either a
    {!job} or a structured {!error} that the daemon turns into an error
    reply — a bad request must never take the daemon down. *)

(** {1 Requests} *)

(** Where an external job's DEF text comes from: inline on the request
    line (["def"]) or a daemon-local file path (["def_path"]). *)
type def_source = Inline of string | Path of string

(** What the job optimises: a generated benchmark (the ["design"] /
    ["scale"] / ["util"] request fields) or an external placement
    ingested through the [Io.Def] codec. The two are mutually
    exclusive on the wire. *)
type source =
  | Generated of {
      design : Netlist.Designs.name;
      scale : int;   (** design-size divisor, >= 1; default 8 *)
      util : float;  (** placement utilisation in (0,1); default 0.75 *)
    }
  | External of def_source

(** One optimisation job, defaults already applied. *)
type job = {
  id : string;              (** client-chosen tag, echoed on the reply *)
  source : source;
  arch : Pdk.Cell_arch.t;   (** default ClosedM1; for external jobs, the
                                library the DEF is bound against *)
  alpha : float option;     (** alignment-weight override; default: paper *)
  sequence : int;           (** optimisation sequence 1..5; default 1 *)
  solver : Vm1.Scp_solver.mode option;
  (** window-solver override (the ["solver"] request field:
      [greedy|anneal|portfolio]); [None] defers to the
      daemon's default ([--solver], else greedy) *)
  want_trace : bool;        (** reply carries a [vm1dp-trace/1] blob *)
}

(** [generated_job ~id ?arch ?scale ?util ?alpha ?sequence ?want_trace
    design] builds a generated-benchmark job with the protocol's
    defaults — the shape every pre-external client sent. *)
val generated_job :
  id:string -> ?arch:Pdk.Cell_arch.t -> ?scale:int -> ?util:float ->
  ?alpha:float -> ?sequence:int -> ?solver:Vm1.Scp_solver.mode ->
  ?want_trace:bool -> Netlist.Designs.name -> job

(** {1 Errors} *)

(** Machine-readable failure class of an error reply. *)
type error_code =
  | Parse_error         (** the line is not a JSON object *)
  | Unsupported_schema  (** missing/unknown/non-jobs ["schema"] tag *)
  | Bad_request         (** well-formed, but a field is missing, of the
                            wrong type, or out of range *)
  | Internal            (** the job itself raised inside the daemon *)

(** The wire spelling of a code ([parse_error], [bad_request], ...). *)
val error_code_string : error_code -> string

(** A structured error reply: [err_id] is the request's [id] when it
    could still be extracted, so clients can correlate. *)
type error = {
  code : error_code;
  message : string;
  err_id : string option;
}

(** {1 Results} *)

(** The deterministic payload of a successful reply. Everything in here
    — including [digest], a placement fingerprint — is a pure function
    of the job parameters: the daemon's byte-identity contract (cold =
    warm = interleaved, at any [--jobs]) is checked over the
    {!result_json} serialisation of this record. *)
type result = {
  r_design : string;        (** generated name, or the DEF's [DESIGN] *)
  r_arch : string;
  r_scale : int option;     (** [None] (JSON [null]) for external jobs *)
  r_util : float option;    (** [None] (JSON [null]) for external jobs *)
  r_alpha : float;          (** the alpha actually used *)
  r_sequence : int;
  instances : int;
  init : Report.Flow.eval;  (** routed metrics before optimisation *)
  final : Report.Flow.eval; (** routed metrics after optimisation *)
  digest : string;          (** MD5 of the final placement (coordinates
                                and orientations, textual form) *)
}

(** {1 Replies} *)

(** A reply as the daemon sends it: [artifacts] lists each artifact
    cache consulted for the job as [(name, hit)], [latency_ms] is
    resolve + execution time (wall time of the job itself, not queue
    time), [trace] is present when the job asked for one. *)
type reply =
  | Ok of {
      job : job;
      result : result;
      artifacts : (string * bool) list;
      latency_ms : float;
      trace : Obs.Json.t option;
    }
  | Err of error

(** {1 Encoding} *)

(** [encode_job j] is the request line for [j] (no trailing newline). *)
val encode_job : job -> string

(** [result_json r] is the ["result"] member of an ok reply — the
    serialisation the byte-identity contract quantifies over. *)
val result_json : result -> Obs.Json.t

(** [encode_reply r] is the reply line (no trailing newline). *)
val encode_reply : reply -> string

(** {1 Decoding} *)

(** [parse_job line] applies defaults and validates every field. (The
    [Stdlib.result] spelling: {!type-result} names the reply payload in
    this module.) *)
val parse_job : string -> (job, error) Stdlib.result

(** A reply as a client sees it, structure only — used by the load
    generator and the tests; loose by design so it can also report on
    replies from a future daemon version. *)
type parsed_reply = {
  p_id : string option;
  p_status : string;                 (** ["ok"] or ["error"] *)
  p_result : Obs.Json.t option;      (** the ["result"] member, verbatim *)
  p_latency_ms : float option;
  p_cache : (string * bool) list;    (** artifact name -> was it a hit *)
  p_error_code : string option;
}

(** [parse_reply line] decodes one reply line; [Error] only when the
    line is not a [vm1dp-jobs/1] object with a ["status"]. *)
val parse_reply : string -> (parsed_reply, string) Stdlib.result
