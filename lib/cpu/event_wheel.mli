(** Fixed-horizon event wheel: the cycle loop's completion calendar.

    Pre-allocated ring of int vectors indexed by [cycle mod horizon], with
    a small overflow bucket for events scheduled further out than the
    horizon (unbounded DRAM queueing delays).  Steady state performs no
    minor-heap allocation.

    Consumer contract: {!pop} must be drained to exhaustion on every cycle,
    in nondecreasing cycle order — that is what guarantees a ring slot is
    empty again before the wheel wraps back onto it. *)

type t

val create : ?slot_capacity:int -> horizon:int -> unit -> t
(** [horizon] must be a positive power of two, at least the common-case
    maximum event latency (events beyond it still work, via the overflow
    bucket, just more slowly). *)

val add : t -> now:int -> cycle:int -> int -> unit
(** Schedule payload [data >= 0] for [cycle > now]. *)

val pop : t -> cycle:int -> int
(** Next payload due at [cycle], or [-1] when none remain.  Events of one
    cycle are delivered newest-first (LIFO), matching the
    prepend-then-iterate order of the Hashtbl calendar it replaces.
    Overflow-bucket entries whose due cycle has already passed are also
    delivered (late) rather than stranded: a consumer that honours the
    drain-every-cycle contract never observes the difference, but one
    whose cycle counter jumps — e.g. a window that fast-forwards past a
    quiet region — must not leave [pending] events unreachable. *)

val pending : t -> int
(** Events scheduled and not yet popped. *)

val overflow_length : t -> int
(** Events currently parked in the overflow bucket (diagnostics). *)

val next_due : t -> from:int -> limit:int -> int
(** [next_due t ~from ~limit] is the first cycle [c] in [[from, limit)] at
    which [pop t ~cycle:c] would deliver an event, or [limit] when there
    is none.  [from] is the next cycle the consumer will drain, so every
    earlier cycle has been drained.  The ring scan is bounded by
    [limit - from] slots.  This is how the cycle loop skips quiet cycles:
    it jumps straight to the next due event instead of draining the empty
    cycles in between.  With a tracer or the scoreboard attached the loop
    does not skip, and the statistics are identical either way. *)
