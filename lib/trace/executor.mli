(** Functional (architectural) execution of a program into a dynamic trace.

    This plays the role of DynamoRIO Memtrace / Intel PT in the paper
    (Section 3.3), and like them it records only what changes at run
    time: for every retired micro-op its pc, branch outcome and effective
    memory address.  The opcode and register operands are static, read
    from [prog.code] at that pc.  Effective addresses in the trace are
    what enables the slicer to follow dependencies through memory — the
    capability IBDA hardware lacks. *)

type t = {
  prog : Program.t;
  dyns : int array;
      (** one word per dynamic micro-op: [pc lsl 1 lor taken], where
          [taken] is the branch outcome ([1] for unconditional
          transfers) *)
  addrs : int array;
      (** effective byte address of micro-op [i] for memory operations,
          [-1] otherwise *)
  final_pc : int;  (** pc the run would have fetched after its last micro-op *)
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
    or after [max_instrs] dynamic micro-ops.  The trace columns are sized
    to [max_instrs] up front, so the budget must be one the run can hold.

    [on_step pc regs] observes the architectural state {e before} each
    micro-op executes — the replay oracle the static-analysis soundness
    properties compare dataflow facts against.  The register array is the
    live one: callers must not mutate it. *)

(** {1 Micro-op [i] of a trace} *)

val length : t -> int
(** Number of dynamic micro-ops. *)

val pc : t -> int -> int
val taken : t -> int -> bool
val addr : t -> int -> int

val next_pc : t -> int -> int
(** pc of micro-op [i + 1]; for the last micro-op, {!field-final_pc}. *)

val decoded : t -> int -> Program.decoded
(** The static micro-op at [pc t i]: opcode and register operands. *)

val op : t -> int -> Isa.op

val load_count : t -> int
(** Number of dynamic loads in the trace (excluding software prefetches). *)

val branch_count : t -> int
(** Number of dynamic conditional branches. *)
