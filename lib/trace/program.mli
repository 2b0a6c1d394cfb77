(** Assembly-level program representation.

    Workloads are written in a small assembler DSL ({!inst} lists with
    symbolic labels) and assembled into an array of decoded micro-ops
    indexed by program counter.  The decoded form is what the functional
    executor, the trace slicer and the timing simulator consume. *)

(** Second ALU / branch operand: a register or an immediate. *)
type operand =
  | Reg of Isa.reg
  | Imm of int

(** Assembler statements.  Register fields are listed destination first.

    Memory operands are [base register + byte offset].  Branch targets are
    symbolic labels resolved by {!assemble}. *)
type inst =
  | Label of string
  | Li of Isa.reg * int  (** rd <- imm *)
  | Alu of Isa.alu_kind * Isa.reg * Isa.reg * operand  (** rd <- rs1 op rs2/imm *)
  | Mul of Isa.reg * Isa.reg * Isa.reg
  | Div of Isa.reg * Isa.reg * Isa.reg
  | Fadd of Isa.reg * Isa.reg * Isa.reg
  | Fmul of Isa.reg * Isa.reg * Isa.reg
  | Fdiv of Isa.reg * Isa.reg * Isa.reg
  | Ld of Isa.reg * Isa.reg * int  (** rd <- mem[rs + off] *)
  | St of Isa.reg * Isa.reg * int  (** mem[base + off] <- rs; arguments: value, base, off *)
  | Prefetch of Isa.reg * int  (** prefetch mem[rs + off] *)
  | Br of Isa.cond * Isa.reg * operand * string  (** if rs1 cond rs2/imm then goto label *)
  | Jmp of string
  | Call of string
  | Ret
  | Nop
  | Halt

(** A decoded micro-op.  [-1] marks an absent register field or target. *)
type decoded = {
  op : Isa.op;
  dst : int;
  src1 : int;
  src2 : int;
  imm : int;  (** immediate value or memory byte offset *)
  target : int;  (** branch/jump/call target pc *)
}

type t = {
  name : string;
  code : decoded array;
  labels : (string * int) list;  (** label name -> pc, for diagnostics *)
}

exception Assembly_error of string

val assemble : name:string -> inst list -> t
(** Resolve labels and decode.  Labels occupy no program-counter slot.
    @raise Assembly_error on duplicate or undefined labels or register
    indices outside [0, Isa.num_regs). *)

val pp_decoded : Format.formatter -> decoded -> unit
(** Disassemble one micro-op, e.g. [ld r3, 8(r5)]. *)
