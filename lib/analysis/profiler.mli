(** Software profiling pass — the PMU / PEBS / LBR surrogate (paper Section
    3.2).

    The profiler replays a trace through a functional copy of the memory
    hierarchy (including the BOP and stream prefetchers, so loads the
    hardware prefetcher already covers do not look delinquent) and through
    the TAGE predictor.  It produces the per-load and per-branch statistics
    the criticality heuristics consume: execution counts, LLC miss ratios,
    address-delta regularity, memory-level parallelism around each load's
    misses, and branch misprediction rates. *)

type load_stats = {
  mutable execs : int;
  mutable l1_misses : int;
  mutable llc_misses : int;
  mutable regular_deltas : int;
      (** accesses whose address delta repeated the previous delta *)
  mutable mlp_sum : int;  (** summed outstanding-miss estimate at each LLC miss *)
  mutable last_addr : int;
  mutable prev_delta : int;
}

type branch_stats = {
  mutable b_execs : int;
  mutable b_mispredicts : int;
}

type report = {
  loads : (int, load_stats) Hashtbl.t;  (** per static pc *)
  branch_table : (int, branch_stats) Hashtbl.t;  (** per static pc *)
  long_ops : (int, int) Hashtbl.t;
      (** per-pc execution counts of long-latency arithmetic (integer and
          floating-point division) — the Section 6.1 extension targets *)
  pc_execs : int array;  (** execution count of every static pc *)
  total_instrs : int;
  total_loads : int;
  total_llc_misses : int;
  total_branches : int;
  total_mispredicts : int;
  mem_params : Memory_system.params;  (** the hierarchy the trace was replayed on *)
}

val profile : ?mem_params:Memory_system.params -> Executor.t -> report
(** Replay the trace; defaults to the Skylake hierarchy of Table 1. *)

val miss_ratio : load_stats -> float
(** LLC misses / executions. *)

val stride_ratio : load_stats -> float
(** Fraction of accesses with a repeated delta — high values mean the
    hardware prefetcher can cover the load. *)

val avg_mlp : load_stats -> float
(** Mean outstanding-miss estimate over this load's LLC misses; 0 when the
    load never missed. *)

val mispredict_ratio : branch_stats -> float

val amat_estimate : report -> load_stats -> int
(** Cycle-weight surrogate for this load in slice DAGs, under the
    hierarchy [report] was profiled on: DRAM-dominated
    loads weigh a full miss latency, LLC-dominated loads the LLC latency,
    cache-resident loads the L1 latency (paper Section 3.5: "for loads we
    utilize the AMAT in cycles"). *)
