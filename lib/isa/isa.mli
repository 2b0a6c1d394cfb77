(** Micro-op instruction set of the simulated machine.

    The simulator executes a small RISC-like micro-op ISA.  Each micro-op
    carries at most one destination register, up to two source registers and,
    for memory operations, one effective address.  Opcode classes map onto
    the functional units of the modeled core (Table 1 of the paper: 4 ALU,
    2 load, 1 store port) and onto x86-like instruction byte sizes so that
    the CRISP one-byte criticality prefix has a measurable code-footprint
    cost (paper, Section 5.7). *)

type reg = int
(** Architectural register index, [0 .. num_regs - 1]. *)

val num_regs : int
(** Number of architectural integer registers (64). *)

(** Integer ALU operation kinds.  All execute in one cycle. *)
type alu_kind =
  | Add
  | Sub
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Cmp
  | Mov

(** Branch conditions, comparing two source registers. *)
type cond =
  | Eq
  | Ne
  | Lt
  | Ge
  | Le
  | Gt

(** Micro-op opcodes. *)
type op =
  | Alu of alu_kind  (** one-cycle integer operation *)
  | Li  (** load-immediate; one-cycle, no register sources *)
  | Mul  (** integer multiply *)
  | Div  (** integer divide; long latency, a CRISP target (Section 6.1) *)
  | Fp_add  (** floating-point add/sub *)
  | Fp_mul  (** floating-point multiply *)
  | Fp_div  (** floating-point divide; long latency *)
  | Load  (** memory load; latency set by the cache hierarchy *)
  | Store  (** memory store; address/data generation costs one cycle *)
  | Prefetch  (** software prefetch: a load with no destination register *)
  | Branch of cond  (** conditional direct branch *)
  | Jump  (** unconditional direct branch *)
  | Call  (** direct call; pushes the return address on the RAS *)
  | Ret  (** return; pops the RAS *)
  | Nop
  | Halt  (** terminates the program *)

(** Functional-unit classes; port counts come from the core configuration. *)
type fu_class =
  | Fu_alu
  | Fu_load
  | Fu_store

val fu_of_op : op -> fu_class
(** Functional unit executing the given opcode.  Branches, jumps and all
    arithmetic use the ALU ports; loads and software prefetches use load
    ports; stores use the store port. *)

val exec_latency : op -> int
(** Fixed execution latency in cycles, per the processor implementation
    (paper Section 3.5 assigns fixed latencies from instruction tables).
    For [Load]/[Prefetch] this is the address-generation cost only; the
    memory-access time is added by the memory system. *)

val byte_size : op -> int
(** Static code size of the encoded instruction in bytes, x86-like.  The
    CRISP criticality prefix adds {!prefix_bytes} on top of this. *)

val prefix_bytes : int
(** Size of the CRISP 'critical' instruction prefix: one byte. *)

val is_branch : op -> bool
(** Whether the opcode redirects control flow (conditional branch, jump,
    call or return). *)

val is_conditional : op -> bool
(** Whether the opcode is a conditional branch. *)

val is_mem : op -> bool
(** Whether the opcode accesses memory ([Load], [Store] or [Prefetch]). *)

val writes_reg : op -> bool
(** Whether the opcode produces a register result. *)

val op_name : op -> string
(** Mnemonic of an opcode, e.g. ["add"], ["ld"], ["beq"]. *)
