(** No-profile criticality prediction from the CFG alone.

    CRISP finds delinquent loads and hard branches by profiling; the
    forecast-slice line of work argues much of that signal is visible in
    program structure.  This pass runs the {!Dataflow} analyses over a
    workload and nominates:

    - {b pointer-chase loads}: loads inside a natural loop whose
      address-generating closure (through reaching definitions and
      may-alias store→load edges) reaches back to the load itself — a
      loop-carried recurrence through memory;
    - {b indirect/gather loads}: in-loop loads whose address depends on
      another load's data and whose effective-address interval is not
      provably cache-resident (a bounded footprint no larger than
      4 KiB stays in L1 and is never delinquent);
    - {b data-dependent branches}: conditional in-loop branches whose
      condition closure contains a load — the statically visible share
      of CRISP's hard branches.

    Affine/strided address streams (closures with no load) are skipped:
    a hardware stride prefetcher covers them, and CRISP's profiler
    rarely classifies them as delinquent.

    Each candidate carries its backward slice restricted to the
    innermost loop body and a latency-weighted static cost estimate.
    {!compare_tagging} scores the prediction against a profiled
    {!Tagger} map; the [static_crit] experiments figure reports those
    scores across the whole catalog. *)

type reason =
  | Pointer_chase  (** address closure reaches the load itself *)
  | Indirect  (** address depends on other loaded data *)
  | Data_branch  (** branch condition depends on loaded data *)

type candidate = {
  pc : int;
  reason : reason;
  header : int;  (** innermost natural-loop header *)
  slice : int list;  (** address/condition closure plus the root, sorted *)
  cost : int;  (** latency-weighted static slice cost *)
}

type t = {
  predicted : bool array;  (** per-pc union of candidate slices *)
  candidates : candidate list;  (** sorted by pc *)
}

val analyze : Workload.t -> t
(** Deterministic: same workload, same result. *)

type comparison = {
  predicted_pcs : int;
  tagged_pcs : int;
  overlap_pcs : int;
  precision : float;  (** overlap / predicted; 1 when nothing predicted *)
  recall : float;  (** overlap / tagged; 1 when nothing tagged *)
  jaccard : float;  (** overlap / union; 1 when both empty *)
  load_roots : int;  (** profiled delinquent-load slice roots (kept) *)
  load_roots_hit : int;  (** of those, roots the static pass predicted *)
}

val compare_tagging : t -> Tagger.t -> comparison

val pp_comparison : Format.formatter -> comparison -> unit
