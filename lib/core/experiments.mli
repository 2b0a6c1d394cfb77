(** One function per table and figure of the paper's evaluation (Section 5),
    plus the Section 3.1 motivating measurement and the ablations DESIGN.md
    calls out.  Each function runs the required simulations (memoised
    through {!Runner}), prints the figure as text, and returns the raw data
    for tests and downstream tooling.

    [eval_instrs]/[train_instrs] default to 100_000/80_000 so the full
    suite regenerates in minutes; pass larger values for tighter
    measurements. *)

type sizes = {
  eval_instrs : int;
  train_instrs : int;
}

val default_sizes : sizes

val set_pool : Exec.Pool.t -> unit
(** Install the execution pool for the figure grids (job-graph mode):
    every (application x column) cell of a table or figure is submitted
    as one job, long-pole applications first, and the figure renders on
    the calling domain when all cells have resolved.  The default is
    {!Exec.Pool.sequential}, which runs cells inline in submission order
    — the pure-sequential escape hatch behind [--jobs 1].  Cells are
    memoised pure computations, so the rendered figures are byte-identical
    for any pool. *)

val current_pool : unit -> Exec.Pool.t

type resilience = {
  policy : Resil.Supervise.policy;
  journal : Resil.Journal.t option;
}

val set_resilience : ?journal:Resil.Journal.t -> Resil.Supervise.policy -> unit
(** Install the supervision policy (deadline / retries / backoff seed)
    applied to every grid cell, and optionally a checkpoint journal.
    With a journal, each completed cell is recorded (atomically) under
    its stable ident ["TAG/APP/COL"], cells with a valid checkpoint are
    restored instead of recomputed (logged as [Restored]), and a killed
    run resumed against the same journal recomputes only the missing
    cells.  The default is {!Resil.Supervise.default_policy} and no
    journal.

    A cell whose job times out, exhausts its retries or is quarantined
    resolves to the figure's degraded marker (NaN — rendered as ["--"]
    by {!Report}) and is recorded in {!Resil.Log}; callers decide the
    exit code from {!Resil.Log.counts}. *)

val current_resilience : unit -> resilience

val set_sample : Sample_config.t option -> unit
(** Install (or clear) the sampling config for the figure grids: with a
    config installed, grid cells evaluate through {!Runner.evaluate}
    with [~sample] — sampled timing simulation with interval CPI —
    instead of full-fidelity runs.  Sampled cells keep their own
    memo identity, and callers journalling a sampled run must fold the
    config into the journal signature (the CLI does) so sampled and full
    checkpoints never mix. *)

val current_sample : unit -> Sample_config.t option

val protected : ident:string -> (unit -> 'a) -> 'a option
(** Run a whole figure, catching any exception into a [Degraded] log
    entry and an explicit marker line instead of propagating — the
    wrapper {!run_all} uses around every step. *)

val apps : string list
(** The 16 applications of Figures 4 and 7-12 (SPEC proxies, Xhpcg,
    TailBench proxies); the pointer-chase microbenchmark appears only in
    Figure 1 and the Section 3.1 experiment, as in the paper. *)

val table1 : unit -> unit
(** Print Table 1 (the simulated system). *)

val fig1 : ?sizes:sizes -> unit -> (int * float) array * (int * float) array
(** UPC timelines (windowed) of the pointer-chase microbenchmark under OOO
    and CRISP — Figure 1.  Returns (ooo, crisp) series. *)

val motivating : ?sizes:sizes -> unit -> float * float
(** Section 3.1: IPC of the pointer-chase kernel without and with the
    manual software prefetch (both on the baseline scheduler). *)

val fig3 : unit -> int list
(** Walk the load-slice extraction of Figure 3 on the microbenchmark's
    delinquent load and print the annotated program; returns the slice
    pcs. *)

val fig4 : ?sizes:sizes -> unit -> (string * float) list
(** Average dynamic load-slice size per application — Figure 4. *)

val fig7 : ?sizes:sizes -> unit -> (string * float list) list
(** IPC improvement over OOO for CRISP and IBDA with 1K/8K/64K/unbounded
    ISTs — Figure 7.  Each row is [app, [crisp; ibda1k; ibda8k; ibda64k;
    ibdaInf]] as speedup-minus-one fractions; a final "mean" row holds
    arithmetic means. *)

val fig8 : ?sizes:sizes -> unit -> (string * float list) list
(** Load slices only / branch slices only / combined — Figure 8. *)

val fig9 : ?sizes:sizes -> unit -> (string * float list) list
(** CRISP gain at RS/ROB = 64/180, 96/224, 144/336 and 192/448 —
    Figure 9. *)

val fig10 : ?sizes:sizes -> unit -> (string * float list) list
(** CRISP gain with miss-contribution thresholds T = 5%, 1%, 0.2% —
    Figure 10. *)

val fig11 : ?sizes:sizes -> unit -> (string * float) list
(** Total static critical instructions per application — Figure 11. *)

val fig12 : ?sizes:sizes -> unit -> (string * float list) list
(** Static and dynamic code-footprint overhead of the criticality prefix,
    and the L1I MPKI delta — Figure 12 (plus the Section 5.7 icache
    observation).  Row values: [static_overhead; dynamic_overhead;
    icache_mpki_delta], all fractions. *)

val static_crit : ?sizes:sizes -> unit -> (string * float list) list
(** The crisp-check v2 head-to-head: the no-profile {!Static_crit}
    predictor scored against the profiled CRISP tagger on every catalog
    workload.  Row values: [predicted_pcs; tagged_pcs; overlap_pcs;
    precision; recall; jaccard; load_roots; load_roots_hit] (counts as
    floats; see {!Static_crit.comparison}).  Tracked as its own golden
    ([test/goldens/static_crit.json]). *)

val ablations : ?sizes:sizes -> unit -> (string * float list) list
(** Design-choice ablations on a representative subset: full CRISP vs no
    critical-path filter, no memory dependencies, no ratio guardrail, and a
    random-ready scheduler. *)

val division : ?sizes:sizes -> unit -> float * float
(** The Section 6.1 extension: prioritise long-latency division and its
    slices on a division-chained kernel.  Returns (OOO IPC, CRISP IPC). *)

val run_all : ?sizes:sizes -> unit -> unit
(** Regenerate every table and figure in order, plus the Section 6.1
    division extension. *)
