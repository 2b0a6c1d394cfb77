(** Debug-mode pipeline scoreboard: an independent oracle asserting
    per-cycle microarchitectural invariants of {!Cpu_core} and
    {!Scheduler}.

    The scoreboard is purely observational — it reads ROB/RS/age-matrix
    state and never mutates it or draws from any PRNG — so a run with the
    scoreboard enabled produces {e bit-identical} statistics to the same
    run with it disabled; it only differs by raising {!Violation} the
    moment an invariant breaks instead of silently corrupting results.

    Checked invariants:
    - ROB entries retire strictly in trace order;
    - no instruction is selected for issue before all of its source
      operands are ready ([deps_left = 0], BID bit set);
    - selection discipline per policy: the oldest-ready pick never bypasses
      an older ready instruction, and CRISP's PRIO pick never bypasses an
      older {e ready-and-critical} instruction (nor selects a non-critical
      instruction while a critical one is ready);
    - RS occupancy conservation: the scheduler's occupied-slot count always
      equals the number of ROB entries still resident in the RS;
    - age-order soundness: the picker's age positions agree with
      insertion order and with the BID/PRIO bits
      ({!Scheduler.self_check}).

    Enable via {!Cpu_config.with_scoreboard}. *)

exception Violation of string
(** Raised on the first broken invariant, with cycle and slot context. *)

type t

val create : Cpu_config.t -> t

val check_select :
  t -> Scheduler.t -> cycle:int -> slot:int -> ready:bool -> deps_left:int -> unit
(** Validate one scheduler selection, immediately after {!Scheduler.select}
    returned [slot] (so [slot]'s selected bit is already set). *)

val check_retire : t -> cycle:int -> dyn:int -> expected:int -> unit
(** The ROB head retiring holds dynamic index [dyn]; in-order retirement
    demands [dyn = expected] (the window's first dynamic index plus the
    count of instructions retired so far). *)

val check_cycle : t -> Scheduler.t -> cycle:int -> rs_resident:int -> unit
(** End-of-cycle conservation checks.  [rs_resident] is the number of ROB
    entries currently holding an RS slot.  The O(slots²) age-matrix
    self-check is throttled to every 64th cycle. *)

val checks_run : t -> int
(** Total individual invariant checks performed (for reporting). *)
