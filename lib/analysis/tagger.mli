(** Criticality tagging — the binary-rewriting step of the FDO flow
    (paper Sections 3.2–3.4 and Figure 5, steps 2–3).

    Builds load slices for every delinquent load and branch slices for
    every hard branch, applies critical-path filtering, merges them, and
    enforces the empirically determined guardrail that critical
    instructions should be at most 40% of the dynamic stream: with too
    many critical instructions the scheduler has nothing to deprioritise,
    so the least-contributing slices are dropped until the ratio fits.
    The critical-path cutoff is fixed at 60% of each instance's longest
    path, and {!Slicer.max_instances} root instances are walked per
    slice. *)

(** Tagging policy knobs. *)
type options = {
  use_load_slices : bool;
  use_branch_slices : bool;
  use_long_op_slices : bool;
      (** also prioritise frequent long-latency arithmetic (division) and
          its slices — the Section 6.1 extension; off by default *)
  critical_path_filter : bool;  (** promote only near-critical-path slice nodes *)
  follow_memory : bool;  (** observe dependencies through memory *)
  ratio_max : float;  (** cap on the tagged dynamic share (0.40) *)
}

val default_options : options

val load_slices_only : options
val branch_slices_only : options

type slice_info = {
  root_pc : int;
  kind : [ `Load | `Branch | `Long_op ];
  contribution : int;  (** LLC misses (loads) or mispredictions (branches) *)
  static_size : int;  (** static instructions after filtering *)
  avg_dynamic_length : float;  (** unfiltered dynamic slice size (Figure 4) *)
  pcs : int list;
  dropped : bool;  (** removed by the ratio guardrail *)
}

type t = {
  critical : bool array;  (** final per-pc tag map (the instruction prefix) *)
  slices : slice_info list;
  static_count : int;  (** tagged static instructions (Figure 11) *)
  dynamic_ratio : float;  (** tagged share of the dynamic stream *)
}

val build :
  ?options:options ->
  Executor.t ->
  Deps.t ->
  Profiler.report ->
  Classifier.result ->
  t
(** Each root's slice is walked once ({!Slicer.extract}); the
    critical-path filter scores the walked instances, weighting loads by
    their AMAT under the hierarchy [report] was profiled on. *)

val analyze :
  ?thresholds:Classifier.thresholds ->
  ?options:options ->
  ?mem_params:Memory_system.params ->
  Executor.t ->
  t
(** The whole software flow of Figure 5 on a train-input trace: profile,
    classify delinquent loads and hard branches, compute dependences,
    then {!build}.  The result retains neither the trace nor the profile
    and classification: like the binary-rewriting step, it keeps only
    the per-pc prefixes. *)

val is_critical : t -> int -> bool
(** Whether static pc carries the prefix. *)

val avg_load_slice_size : t -> float
(** Mean unfiltered dynamic load-slice length over all delinquent loads
    (Figure 4); 0 when there are none. *)
