(** Reservation-station scheduler.

    Models a unified RS with RAND slot allocation and an age-matrix picker,
    operating select-then-arbitrate: each cycle the picker makes up to
    [select_width] {e selections} from the ready (BID) vector; a selected
    instruction issues if a port of its class is still free this cycle,
    otherwise the selection slot is wasted — the classic inefficiency of
    unified matrix schedulers that makes the selection {e order} matter.

    Policies (paper Table 1 and Section 4.2):

    - [Oldest_ready]: selections in pure age order — the baseline
      6-oldest-ready-instructions-first scheduler;
    - [Crisp]: the PRIO vector — ready-and-critical instructions are
      selected (oldest first) before any non-critical ready instruction,
      with a multiplexer falling back to the plain oldest pick (Figure 6);
    - [Random_ready]: uniformly random selections (an ablation floor).

    Age order is kept without a matrix: each occupied slot holds an age
    position, assigned in dispatch order modulo the span given to
    {!create} (the ROB size: RS entries are a subset of the ROB, which is
    in age order).  The oldest and PRIO picks are the first set bit of an
    age-indexed vector scanned circularly from the position after the
    newest, so a selection costs a few word operations whatever the
    number of ready candidates.  The winner is the one the hardware
    age-matrix reduction gives. *)

type policy =
  | Oldest_ready
  | Crisp
  | Random_ready

type t

val create : ?seed:int -> slots:int -> span:int -> policy -> t
(** [slots] RS entries whose live occupants always lie within [span]
    consecutive dispatches (the ROB size for the core).
    @raise Invalid_argument if [span <= 0]. *)

val policy : t -> policy

val free_slots : t -> int

val allocate_slot : t -> critical:bool -> int
(** Claim a random free slot for a newly dispatched instruction; [-1]
    when the RS is full (no option box: the cycle loop calls this).  The
    instruction starts not-ready and takes the next age position.
    @raise Invalid_argument if that position is still held by a live
    slot (more than [span] dispatches are in flight). *)

val mark_ready : t -> int -> unit
(** Source operands became available: raise the slot's BID (and, when the
    instruction is critical, PRIO) bit. *)

val begin_cycle : t -> unit
(** Reset the per-cycle selection mask: slots selected last cycle that
    did not issue and are still ready become candidates again. *)

val select : t -> int
(** Next selection of the current cycle, in policy order, among ready
    instructions not yet selected this cycle; [-1] when none remain.  The
    returned slot is marked selected.  The caller arbitrates ports and
    calls {!issue} (instruction leaves the RS) or nothing (wasted slot;
    the instruction stays ready for later cycles). *)

val issue : t -> int -> unit
(** Release the slot: the instruction left the RS for execution. *)

val unready : t -> int -> unit
(** Drop the slot back to not-ready (e.g. an MSHR-full load that must
    retry); it keeps its age and RS slot. *)

val occupancy : t -> int

val any_ready : t -> bool
(** Whether any slot's BID bit is set, selected this cycle or not.  The
    cycle loop skips a quiet cycle only when none is (and never with a
    tracer or the scoreboard attached, which see every cycle; the
    statistics are identical either way). *)

val set_on_select : t -> (slot:int -> prio_override:bool -> unit) option -> unit
(** Install (or clear) the scheduler's single instrumentation hook.  It
    fires once per successful {!select}, after the slot's selected bit is
    set and before [select] returns; [prio_override] is [true] when the
    CRISP PRIO vector changed the pick relative to the plain oldest-ready
    reduction.  The pipeline scoreboard and the observability tracer both
    observe selections through this one hook — there is deliberately no
    second introspection call site.  The hook must not mutate the
    scheduler; with no hook installed, [select] does no extra work. *)

(** {2 Scoreboard introspection}

    Read-only views of the BID/PRIO/age state for the debug-mode pipeline
    scoreboard ({!Scoreboard}).  None of these mutate the scheduler or
    advance its PRNG, so enabling the scoreboard cannot perturb timing. *)

val slots : t -> int

val slot_occupied : t -> int -> bool

val slot_ready : t -> int -> bool
(** The slot's BID bit. *)

val slot_critical : t -> int -> bool
(** The slot's PRIO (criticality) bit. *)

val slot_selected : t -> int -> bool
(** Whether the slot was already selected this cycle. *)

val slot_older : t -> int -> int -> bool
(** [slot_older t a b]: occupied slot [a] was allocated before occupied
    slot [b].  Read from insertion stamps kept for this purpose, not from
    the age positions the picker scans, so the scoreboard's reference is
    independent of the mechanism it checks. *)

val self_check : t -> string option
(** Structural invariants: BID/PRIO bits only ever set on occupied slots;
    the slot/age-position maps are inverse; each age-indexed bit equals
    BID (and PRIO) of its slot minus this cycle's selections; and the
    circular walk from the position after the newest meets the occupants
    in insertion order.  Returns the first violation, [None] when
    sound. *)
