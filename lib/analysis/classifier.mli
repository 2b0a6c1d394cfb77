(** Delinquent-load and hard-branch classification (paper Section 3.2).

    A load is flagged delinquent when it (a) contributes at least
    [miss_contribution_min] of the program's LLC misses, (b) misses the
    LLC on at least 20% of its own executions, (c) is not covered by the
    hardware prefetcher (at most 75% of its address deltas repeat), and
    (d) misses in low-MLP phases (average MLP at most 5) where its
    latency is exposed.  A branch is flagged hard when its misprediction
    rate is at least 15% (Section 3.4).  Division pcs executing at least
    1.5% of all instructions are reported as long ops for the Section
    6.1 extension, which {!Tagger.options.use_long_op_slices} turns on. *)

type thresholds = {
  miss_contribution_min : float;
      (** share of the program's total LLC misses — the knob T of the
          Figure 10 sensitivity study (default 0.01) *)
}

val default : thresholds

type result = {
  delinquent_loads : (int * Profiler.load_stats) list;
      (** sorted by descending LLC-miss contribution *)
  hard_branches : (int * Profiler.branch_stats) list;
      (** sorted by descending misprediction count *)
  long_ops : (int * int) list;
      (** division pcs flagged by the Section 6.1 extension, with
          execution counts *)
}

val classify : Profiler.report -> thresholds -> result
