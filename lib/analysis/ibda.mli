(** IBDA — iterative backward dependency analysis, the hardware-only
    baseline CRISP is compared against (paper Sections 2, 3.5 and 5.2,
    after the Load Slice Architecture of Carlson et al.).

    IBDA learns slices online: a 32-entry delinquent load table (DLT)
    captures the loads missing the LLC most often; an instruction slice
    table (IST) accumulates address-generating instructions one backward
    level per execution, by inserting the {e register} producers of any
    marked instruction.  Its published limitations are modelled directly:

    - dependencies through memory are invisible (register producers only),
    - the IST has finite, set-associative capacity (1K/8K/64K entries),
    - there is no critical-path analysis, so whole slices are promoted,
    - there is no per-load miss-rate profile beyond the DLT counters.

    The output is a per-{e dynamic}-instruction criticality bitmap: a
    micro-op is tagged when, at the moment it is fetched, its pc is in the
    IST or in the DLT. *)

type config = {
  ist_entries : int;  (** 0 = unbounded (the paper's "infinite IST") *)
  ist_assoc : int;
}

val ist_1k : config
val ist_8k : config
val ist_64k : config
val ist_infinite : config

type result = {
  critical : Bytes.t;  (** one byte per dynamic instruction; 1 = tagged *)
  tagged_dynamic : int;
  tagged_static : int;  (** distinct pcs ever tagged *)
  ist_insertions : int;
  ist_evictions : int;
}

val analyze : ?mem_params:Memory_system.params -> config -> Executor.t -> result

val is_critical : result -> int -> bool
(** Criticality of dynamic instruction [i]. *)
