(** Functional (architectural) execution of a program into a dynamic trace.

    This plays the role of DynamoRIO Memtrace / Intel PT in the paper
    (Section 3.3): it records, for every retired micro-op, its pc, register
    operands, effective memory address and branch outcome.  Effective
    addresses in the trace are what enables the slicer to follow
    dependencies through memory — the capability IBDA hardware lacks. *)

(** One dynamic micro-op instance.  Register fields mirror
    {!Program.decoded}; [addr] is the effective byte address for memory
    operations and [-1] otherwise. *)
type dyn = {
  pc : int;
  op : Isa.op;
  dst : int;
  src1 : int;
  src2 : int;
  addr : int;
  taken : bool;  (** branch outcome; [true] for unconditional transfers *)
  next_pc : int;  (** pc of the next dynamic instruction *)
}

type t = {
  prog : Program.t;
  dyns : dyn array;
  halted : bool;  (** [true] if the program reached [Halt]; [false] if it
                      was cut off at [max_instrs] *)
}

val run :
  ?reg_init:(Isa.reg * int) list ->
  ?mem_init:Mem_image.t ->
  ?on_step:(int -> int array -> unit) ->
  max_instrs:int ->
  Program.t ->
  t
(** Execute from pc 0 with the given initial architectural state.  Memory is
    word-addressed by exact byte address and reads of uninitialised
    locations return 0.  The run stores into a {!Mem_image.copy_on_write}
    view, so [mem_init] is never mutated and one image can seed any
    number of runs.  Execution stops at [Halt], when pc
    runs past the end of the program, when [Ret] finds an empty call stack,
    or after [max_instrs] dynamic micro-ops.

    [on_step pc regs] observes the architectural state {e before} each
    micro-op executes — the replay oracle the static-analysis soundness
    properties compare dataflow facts against.  The register array is the
    live one: callers must not mutate it. *)

val load_count : t -> int
(** Number of dynamic loads in the trace (excluding software prefetches). *)

val branch_count : t -> int
(** Number of dynamic conditional branches. *)
