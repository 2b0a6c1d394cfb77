(** Critical-path filtering of instruction slices (paper Section 3.5).

    A full load slice can exceed the reservation station, leaving the
    scheduler nothing to deprioritise, so CRISP promotes only the
    instructions on (or near) the critical path.  The filter does not walk
    the trace: it scores the per-instance DAGs that {!Slicer.extract}
    recorded, each rooted at one sampled dynamic instance of the
    delinquent load.  Every node is weighted by its execution latency
    (loads by their AMAT estimate), the aggregated path latency through
    each node is computed, and only nodes whose best path reaches at least
    [theta] of the instance's longest path are kept.  The kept static pcs
    of all instances are unioned. *)

val filter : theta:float -> latency_of:(int -> int) -> Slicer.t -> bool array
(** [filter ~theta ~latency_of slice] returns a static membership map (indexed
    by pc) of the critical-path-filtered slice, a subset of
    [slice.pcs].  [latency_of] maps a {e dynamic} instruction index to
    its latency weight.  The root is always kept, and [theta = 0.] keeps
    the whole slice. *)

val longest_path : latency_of:(int -> int) -> Slicer.instance -> int
(** Longest latency-weighted dependency path of one walked instance,
    ending at its root — exposed for tests and diagnostics. *)
