(** The full memory hierarchy of the simulated machine: split L1 caches, a
    shared LLC slice, DDR4 main memory, and the BOP + stream data
    prefetchers of Table 1.

    Two usage modes share one state type:
    - {e timing} ([load], [fetch], [store_commit]) returns completion
      cycles, models MSHR capacity, miss merging and DRAM contention — used
      by the cycle-level core;
    - {e functional} ([load_functional], [fetch_functional]) updates cache
      and prefetcher state without time — used by the software profiler,
      which plays the role of the paper's PMU/PEBS measurements. *)

type params = {
  l1i : Cache.params;
  l1d : Cache.params;
  llc : Cache.params;
  l1i_latency : int;
  l1d_latency : int;
  llc_latency : int;
  dram : Dram.params;
  mshrs : int;  (** max outstanding demand misses *)
  enable_bop : bool;
  enable_stream : bool;
}

val skylake : params
(** Table 1: 32 KiB 8-way L1s (3/4-cycle), 1 MiB 20-way LLC slice
    (36-cycle), DDR4-2400, 16 MSHRs, BOP + stream enabled. *)

type t

val create : params -> t

val params : t -> params

val set_tracer : t -> Obs_tracer.t option -> unit
(** Attach (or detach) an observability tracer.  With a tracer installed
    the timing interface emits [l1d_miss]/[l1i_miss]/[prefetch] events at
    exactly the points where the corresponding {!stats} counters
    increment; the tracer is a write-only sink, so timing and statistics
    are unaffected.  The functional interface never emits (the profiler
    replays accesses out of pipeline time). *)

(** Which level served an access. *)
type level =
  | L1
  | Llc
  | Mem

(** {1 Timing interface} *)

val load : t -> cycle:int -> addr:int -> [ `Done of int * level | `Mshr_full ]
(** Demand load issued at [cycle]; returns the data-ready cycle and serving
    level.  Misses to the same line merge onto the outstanding fill.
    [`Mshr_full] means the load must retry next cycle. *)

(** {2 Unboxed timing interface}

    The cycle loop's variants of {!load} and {!fetch}: a result is packed
    as [(ready lsl 2) lor code] with the level codes below, and [-1]
    stands for [`Mshr_full], so the per-access hot path allocates
    nothing.  Identical timing, statistics and tracer behaviour. *)

val code_l1 : int
val code_llc : int
val code_mem : int

val load_raw : t -> cycle:int -> addr:int -> int
(** Packed {!load}; [-1] when the MSHRs are full. *)

val fetch_raw : t -> cycle:int -> addr:int -> int
(** Packed {!fetch}; never [-1] (instruction fetches do not run out of
    miss slots). *)

val store_commit : t -> cycle:int -> addr:int -> unit
(** Retirement-time store: write-allocate into L1D.  Store misses are
    absorbed by the store buffer and do not stall the pipeline. *)

val fetch : t -> cycle:int -> addr:int -> int * level
(** Instruction fetch through the L1I and LLC. *)

val prefetch_inst : t -> cycle:int -> addr:int -> unit
(** FDIP: fill the L1I line containing [addr] ahead of fetch. *)

val probe_inst : t -> addr:int -> bool
(** Whether the L1I already holds the line containing [addr] (no state
    change); used by FDIP to filter redundant prefetches. *)

val outstanding_misses : t -> cycle:int -> int
(** Demand misses currently in flight (an MLP observation point). *)

val next_fill : t -> cycle:int -> int
(** The earliest cycle after [cycle] at which a demand-miss fill
    completes, or [max_int] when none is in flight: {!outstanding_misses}
    is constant from [cycle] up to the cycle before it. *)

(** {1 Functional interface} *)

val load_functional : t -> addr:int -> level
val fetch_functional : t -> addr:int -> level

(** {1 Warming interface}

    The fast-forward touch mode of sampled simulation.  Loads and fetches
    warm through the functional interface above (their level is
    ignored): cache contents, replacement state and prefetcher training
    change exactly as they would, and nothing else — no MSHR occupancy,
    no DRAM contention, no tracer events.  Stores write-allocate through
    {!warm_store}. *)

val warm_store : t -> addr:int -> unit

val quiesce : t -> unit
(** Clear every absolute-cycle stamp: demand and instruction MSHR files
    (all slots become implicitly free) and the DRAM bank/bus busy times.
    Cache contents, LRU state, prefetcher training and statistics are
    untouched.  A detail window whose cycle counter restarts at zero must
    quiesce first, or stamps from the previous window's time base read as
    in-flight misses and queueing delay. *)

(** {1 Statistics} *)

type stats = {
  l1d_hits : int;
  l1d_misses : int;
  llc_hits : int;
  llc_misses : int;
  l1i_hits : int;
  l1i_misses : int;
  dram_requests : int;
  dram_row_hits : int;
  prefetches_issued : int;
  prefetch_hits_l1d : int;  (** demand hits on prefetched L1D lines *)
  prefetch_hits_llc : int;
}

val stats : t -> stats

val map2_stats : (int -> int -> int) -> stats -> stats -> stats
(** Field-wise combination: [( + )] stitches per-window statistics back
    together, [( - )] brackets a window between two snapshots of the
    cumulative counters. *)
