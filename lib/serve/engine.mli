(** Execution of one batch-service job: resolve shared artifacts, run
    the flow on private copies, report a deterministic result.

    The two-phase shape is the point of the module. {!prepare} runs on
    the submitting domain and is the only code that touches the
    {!Cache} — everything it hands over (library, netlist, master
    placement with its baseline evaluation) is immutable from then on.
    A cache miss computes its artifact there, so a cold job's baseline
    route runs on the submitting domain. {!execute} is
    safe to run on a pool worker: it copies the master placement and
    mutates only that copy, so any number of jobs can be in flight at
    once and a job's result is independent of what runs next to it.

    [execute] never raises: a job that throws internally becomes a
    structured [internal] error reply, because one poisoned job must
    not take the daemon down. *)

(** A job with its shared artifacts resolved (or the error that
    resolution produced). *)
type prepared

(** [prepare cache job] resolves the job's artifacts through the cache
    on the calling domain. Never raises; resolution failures are
    carried inside the returned value and surface as error replies. *)
val prepare : Cache.t -> Protocol.job -> prepared

(** [execute p] runs the optimisation flow for a prepared job:
    copy the master placement, [Vm1.Vm1_opt.run], evaluate, digest. The
    reply's [init] is the master's cached baseline evaluation. The
    reply's [latency_ms] covers artifact resolution (a cold job's
    baseline route included) plus execution. When the job asked for a
    trace, observability is force-enabled around the run and the reply
    carries a [vm1dp-trace/1] blob of the job's root spans (see
    PROTOCOL.md for the isolation caveats); traced jobs are meant to run
    alone — the daemon drains in-flight work first. *)
val execute : prepared -> Protocol.reply

(** [run cache job] is [execute (prepare cache job)] — the one-call
    form used by tests and the load generator. *)
val run : Cache.t -> Protocol.job -> Protocol.reply
