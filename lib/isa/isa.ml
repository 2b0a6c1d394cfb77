type reg = int

let num_regs = 64

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

type cond =
  | Eq
  | Ne
  | Lt
  | Ge
  | Le
  | Gt

type op =
  | Alu of alu_kind
  | Li
  | Mul
  | Div
  | Fp_add
  | Fp_mul
  | Fp_div
  | Load
  | Store
  | Prefetch
  | Branch of cond
  | Jump
  | Call
  | Ret
  | Nop
  | Halt

type fu_class =
  | Fu_alu
  | Fu_load
  | Fu_store

let fu_of_op = function
  | Load | Prefetch -> Fu_load
  | Store -> Fu_store
  | Alu _ | Li | Mul | Div | Fp_add | Fp_mul | Fp_div | Branch _ | Jump | Call
  | Ret | Nop | Halt ->
    Fu_alu

(* Latencies follow common Skylake instruction tables (Fog; uops.info):
   simple integer ops are single-cycle, multiplies take 4 cycles, integer
   division ~24, FP add/mul 4, FP division 16. *)
let exec_latency = function
  | Alu _ | Li | Nop | Halt -> 1
  | Mul -> 4
  | Div -> 24
  | Fp_add -> 4
  | Fp_mul -> 4
  | Fp_div -> 16
  | Load | Prefetch -> 1
  | Store -> 1
  | Branch _ | Jump | Call | Ret -> 1

(* x86-like encoded sizes: short branches are two bytes, reg-reg ALU three,
   memory operations four (ModRM + displacement), FP/SSE five. *)
let byte_size = function
  | Nop | Halt -> 1
  | Branch _ | Jump -> 2
  | Alu _ -> 3
  | Li | Mul -> 4
  | Div -> 4
  | Fp_add | Fp_mul | Fp_div -> 5
  | Load | Store | Prefetch -> 4
  | Call -> 5
  | Ret -> 1

let prefix_bytes = 1

let is_branch = function
  | Branch _ | Jump | Call | Ret -> true
  | Alu _ | Li | Mul | Div | Fp_add | Fp_mul | Fp_div | Load | Store
  | Prefetch | Nop | Halt ->
    false

let is_conditional = function
  | Branch _ -> true
  | Alu _ | Li | Mul | Div | Fp_add | Fp_mul | Fp_div | Load | Store
  | Prefetch | Jump | Call | Ret | Nop | Halt ->
    false

let is_mem = function
  | Load | Store | Prefetch -> true
  | Alu _ | Li | Mul | Div | Fp_add | Fp_mul | Fp_div | Branch _ | Jump | Call
  | Ret | Nop | Halt ->
    false

let writes_reg = function
  | Alu _ | Li | Mul | Div | Fp_add | Fp_mul | Fp_div | Load -> true
  | Store | Prefetch | Branch _ | Jump | Call | Ret | Nop | Halt -> false

let alu_name = function
  | Add -> "add"
  | Sub -> "sub"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Cmp -> "cmp"
  | Mov -> "mov"

let cond_name = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Ge -> "ge"
  | Le -> "le"
  | Gt -> "gt"

let op_name = function
  | Alu k -> alu_name k
  | Li -> "li"
  | Mul -> "mul"
  | Div -> "div"
  | Fp_add -> "fadd"
  | Fp_mul -> "fmul"
  | Fp_div -> "fdiv"
  | Load -> "ld"
  | Store -> "st"
  | Prefetch -> "prefetch"
  | Branch c -> "b" ^ cond_name c
  | Jump -> "jmp"
  | Call -> "call"
  | Ret -> "ret"
  | Nop -> "nop"
  | Halt -> "halt"
