(** Static lint over assembled {!Program.t} values.

    The workload kernels are the ground truth every figure is built on; a
    silent assembler or kernel bug (a branch to the wrong label, a register
    read before anything defines it, a gather walking off its region) would
    corrupt every downstream number without failing a single test.  This
    pass checks, without executing the program:

    - {b control flow}: every branch/jump/call target lands inside the
      program (a target equal to the code length — a label on the final
      instruction boundary — merely ends execution and is flagged as a
      warning), and every instruction is reachable from the entry point;
    - {b register dataflow}: a definite-assignment analysis over the CFG
      flags registers read before any definition on some path.  The
      executor zero-initialises the register file, so such reads are legal
      but almost always unintended — kernels must declare their live-in
      registers via [reg_init].  A register whose {e only} producer is the
      very instruction reading it (and which is not a declared live-in) is
      a self-carried value with no declared starting point — a counter or
      accumulator silently seeded by the zero register file — and is
      escalated to an error;
    - {b memory footprint}: a value-range analysis ({!Dataflow.Ranges},
      interval lattice with branch-edge refinement and loop widening)
      evaluates effective-address intervals and checks them against the
      declared initial memory image — provably negative addresses are
      errors; constant {e load} addresses outside the image (plus one
      cache line of slack), and non-constant address ranges provably
      disjoint from it, are warnings, since loading never-written memory
      silently yields zero while storing past the image is how output
      buffers are born;
    - {b degenerate code}: conditional branches to their own fall-through;
    - {b dead stores}: single-cycle register writes ([Li]/[Alu]) whose
      value no path reads before it is overwritten.  Loads and
      long-latency arithmetic are exempt: the kernels deliberately use
      them as timing payloads whose results go unread;
    - {b dataflow-unreachable code}: pcs reachable in the CFG but on no
      feasible path, because every incoming branch edge is contradicted
      by the value ranges;
    - {b loop-invariant address computation}: an in-loop ALU op, the only
      in-loop definition of its destination, with all operands defined
      outside the loop, feeding a memory base inside the loop — the
      address is recomputed every iteration and should be hoisted in the
      DSL source.

    Diagnostics carry a pc, a rule and a severity; {!check_workload} runs
    the whole battery with the workload's declared [reg_init]/[mem_init]
    as context. *)

type severity =
  | Error
  | Warning

type rule =
  | Bad_target  (** branch/jump/call target outside [\[0, length\]] *)
  | Target_exits  (** target equals the code length: branching there halts *)
  | Undefined_use  (** register read before any definition on some path *)
  | Self_dependency
      (** register whose only producer is the instruction reading it *)
  | Unreachable  (** instruction unreachable from pc 0 *)
  | Negative_address  (** effective address provably below zero *)
  | Oob_address  (** statically-known load address outside the declared image *)
  | Oob_range
      (** bounded load address range provably disjoint from the image *)
  | Degenerate_branch  (** conditional branch to its own fall-through *)
  | Bad_register  (** decoded register field outside the architectural file *)
  | Dead_store  (** single-cycle register write no path ever reads *)
  | Dataflow_unreachable  (** CFG-reachable pc on no feasible path *)
  | Invariant_address
      (** loop-invariant address computation recomputed every iteration *)

type diag = {
  pc : int;  (** offending program counter; [-1] for program-level issues *)
  severity : severity;
  rule : rule;
  message : string;
}

val pp_diag : Format.formatter -> diag -> unit

type image_bounds = {
  lo : int;  (** lowest initialised byte address *)
  hi : int;  (** one past the highest initialised byte address *)
}

val bounds_of_image : Mem_image.t -> image_bounds option
(** Bounds of an initial-memory image; [None] when the image is empty. *)

val check_program :
  ?initialised:Isa.reg list -> ?bounds:image_bounds -> Program.t -> diag list
(** Lint one program.  [initialised] lists the registers the runtime
    declares as live-in (defaults to none); [bounds] enables the footprint
    rules.  Diagnostics are sorted by pc, errors before warnings at the
    same pc. *)

val check_workload : Workload.t -> diag list
(** {!check_program} with the workload's [reg_init] registers as live-ins,
    its [mem_init] image as bounds, and constant propagation seeded with
    the declared initial register values. *)

val errors : diag list -> diag list
