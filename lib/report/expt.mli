(** The paper's Table 2 row format. The paper's tables and figures
    themselves are [vm1dp-bench-manifest/1] manifests under
    [experiments/], run by [expt] ({!Matrix}); see EXPERIMENTS.md
    for paper-vs-measured. *)

(** ExptB / Table 2: full before/after comparison rows, as [vm1opt]
    prints them. *)
module Table2 : sig
  val render : Flow.comparison list -> string
end
