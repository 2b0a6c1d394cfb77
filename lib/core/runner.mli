(** Experiment runner: builds workloads, runs the FDO flow on the train
    input, evaluates on the ref input, and memoises each layer so figures
    sharing a baseline, a train input or an eval trace pay for it once.

    Three memos, all safe to use from several domains at once (the
    parallel experiment suite does), and all deduplicating in flight:
    concurrent requests for one key run the computation exactly once
    and every caller receives the same value.

    - {b Outcomes}, keyed by (name, sizes, config, variant, sample): an
      {!Exec.Memo} that grows until {!clear_cache}.  Entries are stored
      as computed: an in-process value cannot rot, and the persistence
      boundary that can (the cell journal) is digest-checked by
      {!Resil.Journal}.
    - {b FDO tag maps}, keyed by exactly what tagging reads (name,
      [train_instrs], thresholds, tagger options, [cfg.mem]): an
      {!Exec.Memo} of {!Tagger.t}.  The train trace is built inside the
      computation and dropped; each entry is the tag map an outcome
      already holds, so the memo adds no heap of its own (only a
      {!traced} run, which caches no outcome, leaves one tag map).
      {!Cpu_config.with_window} leaves [mem] alone, so every RS/ROB
      window of one app shares one entry.
    - {b Eval traces}, keyed by (name, [eval_instrs]) on the [Ref] input:
      only the most recently completed trace is kept.  Grids submit
      their cells one app row at a time ({!Grid.row_order}), so one
      trace serves a row; a larger bound would pin one trace per fresh
      budget the farm is asked for.  Every timing run only reads it. *)

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
    named workload.  Results are cached on (name, sizes, config, variant);
    the tag map and eval trace come from the layer memos above.
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
    the same inputs.  It shares the tag-map and eval-trace memos. *)

val clear_cache : unit -> unit
(** Drop the completed entries of all three memos: outcomes, tag maps
    and the retained eval trace.  In-flight computations still publish. *)

val cache_stats : unit -> Exec.Memo.stats
(** Lifetime hit/miss/dedup counters of the outcome memo only — how often
    a requested (name, sizes, config, variant, sample) cell was served
    without rerunning the simulator. *)

type layer_stats = {
  fdo : Exec.Memo.stats;  (** the tag-map memo; [misses] counts FDO runs *)
  eval_traces : Exec.Memo.stats;
      (** the eval-trace memo; [misses] counts builds, [entries] is 0 or 1 *)
}

val layer_stats : unit -> layer_stats
(** Counters of the two layer memos under the outcome memo. *)
