(** The repo's golden-stats regression harness: per-workload snapshots of
    simulator statistics and observability counters, committed as JSON and
    diffed with tolerances.

    A snapshot covers one workload at fixed trace sizes: the OOO baseline
    statistics ([ooo.*]), the default CRISP flow statistics and tagging
    summary ([crisp.*]), and the tracer counters and histogram moments of
    the CRISP evaluation run ([obs.*]).  Every run of the simulator is
    deterministic, so any untoleranced difference against the committed
    golden is a behaviour change — either a bug or an intentional model
    recalibration, in which case the goldens are regenerated and reviewed
    as part of the same change (see EXPERIMENTS.md). *)

(** Trace sizes of a snapshot; kept small so the full 17-workload sweep
    stays a sub-minute CI job. *)
type sizes = {
  eval_instrs : int;
  train_instrs : int;
}

val default_sizes : sizes
(** 20k eval / 15k train instructions. *)

val vector : ?cfg:Cpu_config.t -> sizes:sizes -> string -> Obs_golden.vector
(** [vector ~sizes name] simulates the named workload (OOO baseline plus a
    traced default-CRISP run) and flattens the results into one sorted
    golden vector. *)

val default_rtol : string -> float
(** The per-key tolerance used by {!check}: a small relative tolerance for
    derived floating-point keys (IPC, tag ratio, MLP sum), exact match for
    every integer counter. *)

val path : dir:string -> string -> string
(** [path ~dir name] is the golden file for a workload: [dir/name.json]. *)

val write : ?cfg:Cpu_config.t -> dir:string -> sizes:sizes -> string -> unit
(** Simulate and (re)write the committed golden for one workload. *)

val check :
  ?cfg:Cpu_config.t -> dir:string -> sizes:sizes -> string -> (unit, string) result
(** Simulate one workload and diff against its committed golden.  [Error]
    carries a human-readable report: a missing or unreadable golden file,
    metadata that does not match the requested sizes, or the list of
    drifted/missing/extra keys. *)

(** {2 Static-predictor golden}

    One cross-workload vector — [dir/static_crit.json] — scoring the
    profile-free {!Static_crit} predictor against the profiled tagger on
    every catalog workload: per workload the candidate count, the
    {!Static_crit.comparison} counts (exact) and its precision / recall /
    Jaccard ratios (toleranced like other derived floats). *)

val static_name : string
(** ["static_crit"]: the golden's basename, deliberately outside the
    workload namespace. *)

val static_write : ?cfg:Cpu_config.t -> dir:string -> sizes:sizes -> unit -> unit

val static_check :
  ?cfg:Cpu_config.t -> dir:string -> sizes:sizes -> unit -> (unit, string) result
