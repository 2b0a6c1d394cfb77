(** Experiment runner: builds workloads, runs the FDO flow on the train
    input, evaluates on the ref input, and memoises results so figures
    sharing a baseline simulate it once.

    The memo table is an {!Exec.Memo}: it is safe to call {!evaluate} from
    several domains at once (the parallel experiment suite does), and
    concurrent requests for the same (name, sizes, config, variant) cell
    deduplicate in flight — the simulation runs exactly once and every
    caller receives the same outcome.  Entries are stored as computed:
    an in-process value cannot rot, and the persistence boundary that
    can (the cell journal) is digest-checked by {!Resil.Journal}. *)

(** What runs on the core.

    {b Plain-data invariant}: every payload reachable from a [variant]
    (and from the [Cpu_config.t] passed to {!evaluate}) must be plain
    structural data — records, tuples, lists, scalars.  No closures,
    objects, or custom blocks: the memo key is a [Marshal]-based digest of
    the whole tuple, and {!evaluate} raises a descriptive
    [Invalid_argument] if a payload cannot be marshalled. *)
type variant =
  | Ooo
      (** untagged baseline on [cfg]'s own scheduler policy: oldest-ready
          for {!Cpu_config.skylake}, random-pick for a [Random_ready]
          config *)
  | Crisp of Classifier.thresholds * Tagger.options
      (** full software flow; scheduler uses the CRISP policy *)
  | Ibda of Ibda.config
      (** hardware-only baseline: online IBDA tags, CRISP scheduler *)

val crisp_default : variant

type outcome = {
  stats : Cpu_stats.t;
  tagging : Tagger.t option;
      (** CRISP variants only: the per-pc tag map, the one product of the
          FDO pass a memo entry keeps (never the train trace) *)
}

val evaluate :
  ?cfg:Cpu_config.t ->
  ?eval_instrs:int ->
  ?train_instrs:int ->
  ?sample:Sample_config.t ->
  name:string ->
  variant ->
  outcome
(** [evaluate ~name variant] returns the evaluation-run statistics for the
    named workload.  Results are cached on (name, sizes, config, variant).
    The CRISP variants profile on the [Train] input and evaluate on [Ref]
    (Section 5.1); IBDA learns online during the evaluation run itself.

    With [sample] set the timing run is replaced by statistical sampling
    ({!Sampler.run}) and [stats] are its stitched measured-window
    statistics; the CRISP profiling/FDO pass and IBDA's online learning
    stay full-fidelity.  A sampled key embeds the canonical sample-config
    string, so a sampled cell can never be served from (or pollute) a
    full-fidelity cell with the same coordinates.

    Fault-injection site (inert unless a {!Resil.Fault_plan} is armed):
    ["runner.run"] at cache-miss computation, with ident [name/<8hex>]
    for full runs and [name/sampled/<8hex>] for sampled ones, the hex
    being the key prefix. *)

val traced :
  ?cfg:Cpu_config.t ->
  ?eval_instrs:int ->
  ?train_instrs:int ->
  ?tracer:Obs_tracer.t ->
  name:string ->
  variant ->
  outcome * Obs_tracer.t
(** Like {!evaluate} but with the observability layer enabled: the
    evaluation run emits pipeline events into the returned tracer (a
    fresh one unless [tracer] is supplied).  Never memoised — tracers are
    not plain data — and statistics are identical to the untraced run on
    the same inputs. *)

val clear_cache : unit -> unit
(** Drop completed memo entries (in-flight simulations still publish). *)

val cache_stats : unit -> Exec.Memo.stats
(** Lifetime hit/miss/dedup counters of the simulation memo — how often a
    requested (name, sizes, config, variant, sample) cell was served
    without rerunning the simulator. *)
