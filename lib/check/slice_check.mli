(** Independent verification of slice extraction and criticality tagging.

    {!Slicer.extract} and {!Tagger.build} sit between the profiler and
    every CRISP result; a bug in either silently corrupts all figures.
    This pass re-derives their outputs from first principles and diffs:

    {b Slice closure} ({!verify_slice}): recompute the backward dependency
    closure of the root directly from {!Deps.t} with an independent walk
    (same even instance sampling, per-instance recursion-termination rule
    of paper Section 3.3) and require the slice's static membership set to
    match exactly — no missing ancestors, no spurious members.  Structural
    invariants on the slice value itself: the root is a member, [pc_list]
    is the sorted enumeration of [pcs], every recorded edge joins two
    members and corresponds to a dependency that actually occurs in the
    trace, and every member reaches the root through the edge list.

    {b Tag budget} ({!verify_tagging}): replay the ratio-guardrail
    admission of paper Section 3.2 over the tagger's slice list —
    recomputing the dynamic ratio from the profiler report at every step —
    and require the recorded dropped flags, the final tag map, the static
    count and the dynamic ratio to all match; additionally every tagged pc
    must belong to some slice (tags never leak outside slice members). *)

type violation = {
  pc : int;  (** offending pc, [-1] when not pc-specific *)
  reason : string;
}

val pp_violation : Format.formatter -> violation -> unit

val verify_slice :
  ?follow_memory:bool -> Executor.t -> Deps.t -> Slicer.t -> violation list
(** Pass the same [follow_memory] the slice was extracted with (the
    default mirrors {!Slicer.extract}); roots are sampled as
    {!Slicer.extract} samples them, [Slicer.max_instances] per slice.
    Empty list = verified. *)

val verify_tagging :
  options:Tagger.options -> Profiler.report -> Tagger.t -> violation list
(** Verify a {!Tagger.t} built with [options] against the report it was
    derived from. *)
