(** Cycle-level out-of-order core.

    The model covers the mechanisms CRISP interacts with (paper Sections 2
    and 4): a decoupled frontend with TAGE + BTB + RAS and FDIP running
    ahead along the FTQ; register renaming into a circular ROB; a unified
    reservation station with RAND slot allocation and an age-matrix picker;
    per-class functional-unit ports; load/store queues with store-to-load
    forwarding; the full cache/DRAM hierarchy with BOP + stream
    prefetchers; and in-order retirement with ROB-head stall accounting.

    It is trace-driven: the dynamic instruction stream is the correct path,
    and a branch misprediction is modelled as the frontend producing
    nothing from the fetch of the mispredicted branch until it executes
    plus a redirect penalty.  Wrong-path execution is therefore not
    simulated; this is the standard trace-driven simplification and it is
    conservative for CRISP (wrong-path slices could also warm the cache). *)

(** How micro-ops acquire the CRISP criticality tag. *)
type criticality =
  | No_tags  (** plain OOO baseline *)
  | Static_tags of (int -> bool)
      (** per static pc — CRISP's binary-rewriting prefix *)
  | Dynamic_tags of (int -> bool)
      (** per dynamic instruction index — hardware schemes like IBDA whose
          tags depend on the state of on-chip tables at fetch time *)

val run :
  ?criticality:criticality -> ?tracer:Obs_tracer.t ->
  Cpu_config.t -> Executor.t -> Cpu_stats.t
(** Simulate the whole trace and return aggregate statistics: exactly
    {!run_window} from a cold start over the entire trace.  Fetch goes
    through {!layout_for} (critical instructions carry a one-byte
    prefix, which grows the fetch footprint — Section 5.7).

    Passing [tracer] is the observability switch: the run emits pipeline
    events into it.  Without one no observability work happens.  The
    tracer is a write-only sink, so the returned statistics are identical
    either way.

    The cycle loop's cost follows pipeline events: when no stage can act
    at the next cycle, it jumps to the next cycle at which one can (a due
    completion, the fetch-queue head's or fetch's ready cycle, or a
    demand fill) and charges the skipped cycles' head-stall and MLP
    observations in bulk.  A tracer or the scoreboard turns the skip off,
    so they see every cycle; the statistics are identical either way.

    @raise Failure if the pipeline fails to make progress within
    [400 * n + 100_000] cycles for an [n]-instruction trace (indicates a
    model bug, not a workload property). *)

val layout_for : ?criticality:criticality -> Executor.t -> Layout.t
(** The byte layout every run with this criticality fetches through:
    the layout induced by [Static_tags] (no prefixes for [No_tags] or
    [Dynamic_tags]).  Fast-forward warming must fetch through the same
    layout as the detail windows. *)

(** {1 Sampled simulation}

    Primitives for the SMARTS-style interval sampler in [lib/sample]:
    functional fast-forward carries microarchitectural state between
    detail windows. *)

type warm
(** Microarchitectural state carried through functional fast-forward: a
    memory hierarchy in warming mode plus the TAGE/BTB/RAS predictors,
    and the trace position they have been warmed up to.  Not
    thread-safe. *)

val warm_create : Cpu_config.t -> warm

val warm_pos : warm -> int
(** The next dynamic instruction index to be warmed (advanced by both
    {!warm_touch} and {!run_window}). *)

val warm_touch : warm -> Layout.t -> Executor.t -> int -> unit
(** Fast-forward over dynamic micro-op [i] of the trace: touch the instruction cache
    for its fetch line, replay it into the branch predictors, and warm
    the data hierarchy for its memory access — with no timing model.
    Must be called in trace order. *)

val run_window :
  ?criticality:criticality ->
  ?tracer:Obs_tracer.t ->
  ?warm:warm ->
  start:int ->
  warmup:int ->
  measure:int ->
  Cpu_config.t ->
  Executor.t ->
  Cpu_stats.t
(** Detail-simulate one sampling unit: start fetching at dynamic index
    [start], retire [warmup] instructions to absorb the cold-start bias,
    then measure the next [measure] instructions (both clamped to the
    end of the trace).  A retirement ceiling makes both boundaries
    exact, and the returned statistics cover exactly the measured
    window: [retired] is the measured count, [cycles] the
    measured-window cycles.

    The window adopts the memory hierarchy and predictors of [warm] in
    place (quiescing stale absolute-cycle stamps first, since the
    window's cycle counter restarts at zero) and advances [warm_pos] past
    the instructions it retired; without [warm] it adopts a fresh
    {!warm_create} carrier, which is a cold start.  The result is the
    difference of two snapshots of the core's cumulative counters, taken
    at the window's two boundaries: [loads]/[stores] count the measured
    dynamic range and [mem] is the hierarchy activity over it.
    [tracer] observes the whole window, as in {!run}.

    @raise Invalid_argument if [start] is out of range, [warmup < 0] or
    [measure <= 0]. *)
