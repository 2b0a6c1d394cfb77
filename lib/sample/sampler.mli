(** Statistical (interval) sampling of a detailed simulation.

    The trace is split into [units] equal strides; the start of each
    stride is measured after detailed warmup drawn from the tail of the
    previous one (see {!Sample_config.t}), and everything else is fast-forwarded functionally while warming the
    caches, prefetchers and branch predictors through
    {!Cpu_core.warm_touch}.  CPI is reported as the mean over per-unit
    CPIs with a 95% confidence interval, the SMARTS estimator. *)

type result = {
  config : Sample_config.t;
      (** the requested config with [units] replaced by the count
          actually simulated (clamped to what the trace can hold) *)
  cpi_mean : float;
  cpi_ci95 : float;  (** half-width of the 95% confidence interval *)
  unit_cpis : float array;
  stats : Cpu_stats.t;
      (** stitched statistics over the measured windows only *)
  measured_instrs : int;
  total_instrs : int;
}

val run :
  ?criticality:Cpu_core.criticality ->
  sample:Sample_config.t ->
  Cpu_config.t ->
  Executor.t ->
  result
(** Deterministic: unit placement is systematic (no random offsets), so
    identical inputs give identical results.  One pass over the trace:
    there is no restart to narrow the confidence interval.
    @raise Invalid_argument if [sample] fails {!Sample_config.validate}. *)
