(** One function per table and figure of the paper's evaluation (Section 5),
    plus the Section 3.1 motivating measurement and the ablations DESIGN.md
    calls out.  Each function runs the required simulations (memoised
    through {!Runner}), prints the figure as text, and returns the raw data
    for tests and downstream tooling.

    Every figure takes one explicit run context ({!ctx}): instruction
    budgets, the execution pool, the supervision policy, an optional
    checkpoint journal and an optional sampling config.  {!figures} lists
    every figure by name, in paper order; {!run} and {!run_all} dispatch
    through it. *)

type sizes = {
  eval_instrs : int;
  train_instrs : int;
}

val default_sizes : sizes
(** 100_000 evaluated / 80_000 profiled micro-ops, so the full suite
    regenerates in minutes; pass larger values for tighter
    measurements. *)

type ctx = {
  sizes : sizes;
  pool : Exec.Pool.t;
      (** Job-graph mode: every (application x column) cell of a table or
          figure is submitted as one job, long-pole applications first,
          and the figure renders on the calling domain when all cells
          have resolved.  {!Exec.Pool.sequential} runs cells inline in
          submission order — the pure-sequential path behind [--jobs 1].
          Cells are memoised pure computations, so the rendered figures
          are byte-identical for any pool. *)
  policy : Resil.Supervise.policy;
      (** Supervision (deadline / retries / backoff seed) applied to every
          grid cell.  A cell whose job times out, exhausts its retries or
          is quarantined resolves to the figure's degraded marker (NaN —
          rendered as ["--"] by {!Report}) and is recorded in
          {!Resil.Log}; callers decide the exit code from
          {!Resil.Log.counts}. *)
  journal : Resil.Journal.t option;
      (** Checkpoint journal: each completed cell is recorded (atomically)
          under its stable ident ["TAG/APP/COL"], cells with a valid
          checkpoint are restored instead of recomputed (logged as
          [Restored]), and a killed run resumed against the same journal
          recomputes only the missing cells. *)
  sample : Sample_config.t option;
      (** With a config, grid cells evaluate through {!Runner.evaluate}
          with [~sample] — sampled timing simulation with interval CPI —
          instead of full-fidelity runs.  Sampled cells keep their own
          memo identity; callers journalling a sampled run must fold the
          config into the journal signature (the CLI does) so sampled and
          full checkpoints never mix. *)
}

val default : ctx
(** {!default_sizes}, {!Exec.Pool.sequential},
    {!Resil.Supervise.default_policy}, no journal, no sampling. *)

val apps : string list
(** The 16 applications of Figures 4 and 7-12 (SPEC proxies, Xhpcg,
    TailBench proxies); the pointer-chase microbenchmark appears only in
    Figure 1 and the Section 3.1 experiment, as in the paper. *)

val table1 : unit -> unit
(** Print Table 1 (the simulated system). *)

val fig1 : ctx -> (int * float) array * (int * float) array
(** UPC timelines (windowed) of the pointer-chase microbenchmark under OOO
    and CRISP — Figure 1.  Returns (ooo, crisp) series. *)

val motivating : ctx -> float * float
(** Section 3.1: IPC of the pointer-chase kernel without and with the
    manual software prefetch (both on the baseline scheduler). *)

val fig3 : unit -> int list
(** Walk the load-slice extraction of Figure 3 on the microbenchmark's
    delinquent load and print the annotated program; returns the slice
    pcs. *)

val fig4 : ctx -> (string * float) list
(** Average dynamic load-slice size per application — Figure 4. *)

val fig7 : ctx -> (string * float list) list
(** IPC improvement over OOO for CRISP and IBDA with 1K/8K/64K/unbounded
    ISTs — Figure 7.  Each row is [app, [crisp; ibda1k; ibda8k; ibda64k;
    ibdaInf]] as speedup-minus-one fractions; a final "mean" row holds
    arithmetic means. *)

val fig8 : ctx -> (string * float list) list
(** Load slices only / branch slices only / combined — Figure 8. *)

val fig9 : ctx -> (string * float list) list
(** CRISP gain at RS/ROB = 64/180, 96/224, 144/336 and 192/448 —
    Figure 9. *)

val fig10 : ctx -> (string * float list) list
(** CRISP gain with miss-contribution thresholds T = 5%, 1%, 0.2% —
    Figure 10. *)

val fig11 : ctx -> (string * float) list
(** Total static critical instructions per application — Figure 11. *)

val fig12 : ctx -> (string * float list) list
(** Static and dynamic code-footprint overhead of the criticality prefix,
    and the L1I MPKI delta — Figure 12 (plus the Section 5.7 icache
    observation).  Row values: [static_overhead; dynamic_overhead;
    icache_mpki_delta], all fractions. *)

val static_crit : ctx -> (string * float list) list
(** The crisp-check v2 head-to-head: the no-profile {!Static_crit}
    predictor scored against the profiled CRISP tagger on every catalog
    workload.  Row values: [predicted_pcs; tagged_pcs; overlap_pcs;
    precision; recall; jaccard; load_roots; load_roots_hit] (counts as
    floats; see {!Static_crit.comparison}).  Tracked as its own golden
    ([test/goldens/static_crit.json]). *)

val ablations : ctx -> (string * float list) list
(** Design-choice ablations on a representative subset: full CRISP vs no
    critical-path filter, no memory dependencies, no ratio guardrail, and a
    random-ready scheduler against the oldest-ready OOO baseline (no tags
    on either side). *)

val division : ctx -> float * float
(** The Section 6.1 extension: prioritise long-latency division and its
    slices on a division-chained kernel.  Returns (OOO IPC, CRISP IPC). *)

val figures : (string * (ctx -> unit)) list
(** Every table and figure above, named as its function, in paper
    order.  The one list of figure names: the CLI validates and
    dispatches through it. *)

val run : ctx -> string -> unit
(** Run one figure of {!figures}, degrading instead of propagating: an
    exception escaping the figure is recorded as [Degraded] in
    {!Resil.Log} and printed as an explicit marker line.
    @raise Not_found if the name is not in {!figures}. *)

val run_all : ctx -> unit
(** {!run} every figure of {!figures}, in order. *)
