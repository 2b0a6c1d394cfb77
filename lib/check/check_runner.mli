(** Drives the whole validation battery over catalog workloads.

    For one workload the runner:

    + lints the [Ref] program with {!Lint.check_workload}, splitting off
      the pinned {!expected_findings} (real findings on kernels whose
      dynamic traces are frozen statistical baselines);
    + rebuilds the software-FDO front half on the [Train] input — trace,
      dependencies, profile, classification — extracts a slice for every
      delinquent load and hard branch ({e both} with and without
      dependencies through memory, covering the IBDA ablation) and verifies
      each against {!Slice_check.verify_slice};
    + builds the criticality tag map and verifies it against
      {!Slice_check.verify_tagging};
    + optionally runs {!Static_crit} twice over the [Ref] program —
      requiring determinism — and scores the no-profile prediction
      against the profiled tag map;
    + optionally runs the timing simulation twice per scheduler policy —
      pipeline scoreboard off, then on — requiring no {!Scoreboard.Violation}
      and bit-identical {!Cpu_stats.t}.

    The runner deliberately composes {!Profiler} → {!Classifier} →
    {!Slicer} → {!Tagger} directly rather than through
    {!Tagger.analyze}: it verifies the profile, classification and
    slices that [analyze] drops once the tag map is built. *)

type slice_report = {
  root_pc : int;
  kind : [ `Load | `Branch ];
  follow_memory : bool;
  violations : Slice_check.violation list;
}

type scoreboard_report = {
  policy_name : string;
  violation : string option;  (** {!Scoreboard.Violation} payload, if raised *)
  stats_match : bool;  (** statistics identical with the scoreboard on and off *)
}

type static_report = {
  candidates : int;  (** {!Static_crit} candidates found *)
  comparison : Static_crit.comparison;  (** scored against the profiled tagger *)
  deterministic : bool;  (** two runs produced identical predictions *)
}

type report = {
  workload : string;
  lint : Lint.diag list;  (** unexpected diagnostics: these fail the gate *)
  acknowledged : Lint.diag list;
      (** pinned {!expected_findings} that fired as documented *)
  roots : int;  (** delinquent loads + hard branches whose slices were verified *)
  slices : slice_report list;
  tagging : Slice_check.violation list;
  scoreboard : scoreboard_report list;  (** empty unless requested *)
  static : static_report option;  (** present when [~static:true] *)
}

val expected_findings : (string * (int * Lint.rule) list) list
(** Confirmed lint findings on frozen kernels, per workload name: the
    analyzer is right, but fixing the DSL source would shift every later
    pc and invalidate the committed golden statistics.  Pinned exactly by
    the test suite — a listed finding that {e stops} firing is as much a
    regression as a new one. *)

val check_workload :
  ?instrs:int ->
  ?train_instrs:int ->
  ?scoreboard:bool ->
  ?static:bool ->
  string ->
  report
(** [instrs] bounds the [Ref] trace used for lint context and the
    scoreboard runs (default 60k); [train_instrs] bounds the [Train] trace
    the slices are extracted from (default 40k).  [scoreboard] (default
    [false]) enables the timing-simulation comparison; [static] (default
    [false]) the {!Static_crit} determinism check and tagger comparison.
    @raise Not_found for a name outside {!Catalog.names}. *)

val check_all :
  ?instrs:int ->
  ?train_instrs:int ->
  ?scoreboard:bool ->
  ?static:bool ->
  unit ->
  report list
(** {!check_workload} over the whole catalog, in catalog order. *)

val ok : report -> bool
(** No unexpected lint diagnostics, no slice or tagging violations, every
    scoreboard comparison clean, and the static predictor deterministic
    (acknowledged findings do not fail a report). *)

val pp_report : Format.formatter -> report -> unit
(** One summary line, then one line per diagnostic/violation. *)
