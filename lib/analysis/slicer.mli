(** Backward slice extraction from a dynamic trace (paper Section 3.3).

    This is the one backward trace walk of the analysis layer; the
    critical-path filter ({!Critical_path}) scores the per-instance DAGs
    it records instead of walking the trace again.

    Starting from each sampled dynamic instance of a delinquent load (or
    hard branch), the slicer walks the trace in reverse program order along
    data dependencies — through registers {e and through memory} — keeping
    a LIFO frontier of unexplored ancestors.  Termination is per instance,
    on dynamic instructions: within one instance's walk, the first dynamic
    instance of a static pc that the walk reaches (in LIFO order; the
    root's pc is reached first) is the one expanded, and every instance of
    that pc reached later only confirms the pc's membership and is not
    expanded (the recursive-dependency termination of Figure 3).
    Expansion also stops when an operand has no producer in the trace.
    When two instances of one pc have different producers, the slice
    therefore depends on the traversal order; this is the open finding
    pinned in [test_check].  Slices of the sampled
    instances of one root are merged, as the paper's tooling does. *)

(** One walked dynamic instance of the root: a DAG over the dynamic
    instructions the walk expanded. *)
type instance = {
  nodes : int array;  (** dynamic indices, ascending; the root is last *)
  node_pcs : int array;  (** static pc of each node *)
  producers : int array array;
      (** positions in [nodes] of each node's producers that are nodes *)
}

type t = {
  root_pc : int;
  pcs : bool array;  (** static membership map, indexed by pc *)
  pc_list : int list;  (** members in increasing pc order, root included *)
  dags : instance list;  (** one per sampled dynamic root, in trace order *)
  avg_dynamic_length : float;
      (** mean number of dynamic instructions per instance slice — the
          load slice size of Figure 4 *)
  edges : (int * int) list;  (** static dependency edges producer -> consumer *)
}

val max_instances : int
(** Dynamic root instances sampled per slice (32). *)

val extract : ?follow_memory:bool -> Executor.t -> Deps.t -> root_pc:int -> t
(** [max_instances] dynamic roots are sampled evenly over the trace.
    [follow_memory] (default [true]) enables the
    dependency-through-memory edges that distinguish CRISP from IBDA;
    disable it for the ablation. *)

val size : t -> int
(** Number of static instructions in the merged slice. *)
