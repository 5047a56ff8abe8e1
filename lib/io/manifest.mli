(** Benchmark manifests ([vm1dp-bench-manifest/1]).

    A manifest names the designs an experiment matrix sweeps and the
    axes it sweeps them over. Designs come from two sources: the
    built-in generator ([{"generate": "m0"}], crossed with every
    arch/util/scale combination), or external DEF/LEF files
    ([{"def": "path"}], one matrix cell each — the placement is fixed,
    so the generator axes do not apply). Relative paths are resolved
    against the manifest file's directory at {!load} time.

    An optional [params] axis crosses every cell with named flow
    parameter sets. Each set may override the dM1 weight [alpha]
    (default: the architecture's paper value), the optimisation
    [sequence] of [[bw_um, lx, ly]] steps (default: the paper's single
    (20, 4, 1) step), the router's metal-layer count [router_layers]
    (default: the full stack), and three boolean switches: [use_dm1]
    (default true; false forbids direct vertical M1 in both routes),
    [row_dp] (default true; false skips the HPWL row DP after global
    placement — generated designs only) and [congestion_term] (default
    false; true taxes VM1Opt's candidates in the initial route's hot
    tiles). An omitted field keeps its default. Without [params] every
    cell runs the defaults.

    {!of_json} rejects empty axes, utilisations outside (0, 1], scales
    below 1, negative [alpha], [router_layers] outside 2..6, empty
    sequences, steps with [bw_um <= 0] or negative [lx]/[ly],
    non-boolean switches, [row_dp] in a manifest with an external
    design, unknown params keys and duplicate design or params ids.

    Example:
    {v
    { "schema": "vm1dp-bench-manifest/1",
      "name": "mini",
      "designs": [
        { "id": "m0", "generate": "m0" },
        { "id": "smoke", "def": "m0_smoke.def", "arch": "closedm1" } ],
      "archs": ["closedm1", "openm1"],
      "utils": [0.7, 0.8],
      "scales": [48],
      "params": [
        { "id": "a0", "alpha": 0 },
        { "id": "seq2", "sequence": [[10, 3, 1], [10, 4, 0], [20, 4, 0]] },
        { "id": "l3", "router_layers": 3, "congestion_term": true },
        { "id": "no_dm1", "use_dm1": false } ] }
    v} *)

type source =
  | Generate of Netlist.Designs.name
  | External of {
      def_path : string;
      lef_path : string option;
          (** when absent, the external DEF is bound against the
              generated library for [arch] *)
      arch : Pdk.Cell_arch.t;
          (** ignored when [lef_path] is given — the LEF's [ARCH]
              statement governs *)
    }

type entry = { e_id : string; source : source }

(** One optimisation step: square window side in micrometres and the
    maximum displacement in sites / rows. *)
type step = { bw_um : float; lx : int; ly : int }

(** A named parameter set; [None] fields take the flow defaults. *)
type params = {
  p_id : string;
  alpha : float option;
  sequence : step list option;
  router_layers : int option;
  use_dm1 : bool option;
  row_dp : bool option;
  congestion_term : bool option;
}

type t = {
  m_name : string;
  entries : entry list;
  archs : Pdk.Cell_arch.t list;
  utils : float list;
  scales : int list;
  params : params list;  (** [[]] when the manifest has no [params] *)
}

val of_json : Obs.Json.t -> (t, string) result

(** [to_json m] re-emits the manifest; [of_json (to_json m) = Ok m]. A
    manifest without params is emitted without a [params] member. *)
val to_json : t -> Obs.Json.t

val parse : string -> (t, string) result

(** [load path] parses the manifest file and resolves every relative
    [def]/[lef] path against [Filename.dirname path].
    @raise Sys_error when the file cannot be read. *)
val load : string -> (t, string) result

(** [digest m] is a content key over the manifest's JSON form with
    every external path replaced by a digest of the file's bytes — two
    manifests share a digest exactly when a matrix sweep over them is
    guaranteed to produce the same report, regardless of where the
    files live.
    @raise Sys_error when an external file cannot be read. *)
val digest : t -> string
