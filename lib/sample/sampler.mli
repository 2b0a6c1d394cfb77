(** Statistical (interval) sampling of a detailed simulation.

    The trace is split into [units] equal strides; each stride's tail is
    detail-simulated (warmup + measured window, see {!Sample_config.t})
    and everything else is fast-forwarded functionally while warming the
    caches, prefetchers and branch predictors through
    {!Cpu_core.warm_touch}.  CPI is reported as the mean over per-unit
    CPIs with a 95% confidence interval, the SMARTS estimator. *)

type result = {
  config : Sample_config.t;
      (** the requested config with [units] replaced by the count
          actually simulated (after clamping and target-CI doubling) *)
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
    identical inputs give identical results.  With [target_ci] set the
    whole pass restarts with doubled [units] (at most four times, and
    never beyond what the trace can hold) until the relative CI
    converges.
    @raise Invalid_argument if [sample] fails {!Sample_config.validate}. *)
