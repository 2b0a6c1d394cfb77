type operand =
  | Reg of Isa.reg
  | Imm of int

type inst =
  | Label of string
  | Li of Isa.reg * int
  | Alu of Isa.alu_kind * Isa.reg * Isa.reg * operand
  | Mul of Isa.reg * Isa.reg * Isa.reg
  | Div of Isa.reg * Isa.reg * Isa.reg
  | Fadd of Isa.reg * Isa.reg * Isa.reg
  | Fmul of Isa.reg * Isa.reg * Isa.reg
  | Fdiv of Isa.reg * Isa.reg * Isa.reg
  | Ld of Isa.reg * Isa.reg * int
  | St of Isa.reg * Isa.reg * int
  | Prefetch of Isa.reg * int
  | Br of Isa.cond * Isa.reg * operand * string
  | Jmp of string
  | Call of string
  | Ret
  | Nop
  | Halt

type decoded = {
  op : Isa.op;
  dst : int;
  src1 : int;
  src2 : int;
  imm : int;
  target : int;
}

type t = {
  name : string;
  code : decoded array;
  labels : (string * int) list;
}

exception Assembly_error of string

let error fmt = Format.kasprintf (fun s -> raise (Assembly_error s)) fmt

let check_reg r =
  if r < 0 || r >= Isa.num_regs then error "register r%d out of range" r

let check_regs rs = List.iter check_reg rs

let split_operand = function
  | Reg r ->
    check_reg r;
    (r, 0)
  | Imm v -> (-1, v)

(* First pass: assign a pc to every non-label statement and record labels. *)
let collect_labels insts =
  let table = Hashtbl.create 16 in
  let pc = ref 0 in
  List.iter
    (fun inst ->
      match inst with
      | Label name ->
        if Hashtbl.mem table name then error "duplicate label %S" name;
        Hashtbl.add table name !pc
      | _ -> incr pc)
    insts;
  table

let decode labels inst =
  let resolve name =
    match Hashtbl.find_opt labels name with
    | Some pc -> pc
    | None -> error "undefined label %S" name
  in
  let three op dst src1 src2 =
    check_regs [ dst; src1; src2 ];
    { op; dst; src1; src2; imm = 0; target = -1 }
  in
  match inst with
  | Label _ -> None
  | Li (rd, v) ->
    check_reg rd;
    Some { op = Isa.Li; dst = rd; src1 = -1; src2 = -1; imm = v; target = -1 }
  | Alu (kind, rd, rs1, operand) ->
    check_regs [ rd; rs1 ];
    let src2, imm = split_operand operand in
    Some { op = Isa.Alu kind; dst = rd; src1 = rs1; src2; imm; target = -1 }
  | Mul (rd, rs1, rs2) -> Some (three Isa.Mul rd rs1 rs2)
  | Div (rd, rs1, rs2) -> Some (three Isa.Div rd rs1 rs2)
  | Fadd (rd, rs1, rs2) -> Some (three Isa.Fp_add rd rs1 rs2)
  | Fmul (rd, rs1, rs2) -> Some (three Isa.Fp_mul rd rs1 rs2)
  | Fdiv (rd, rs1, rs2) -> Some (three Isa.Fp_div rd rs1 rs2)
  | Ld (rd, base, off) ->
    check_regs [ rd; base ];
    Some { op = Isa.Load; dst = rd; src1 = base; src2 = -1; imm = off; target = -1 }
  | St (value, base, off) ->
    check_regs [ value; base ];
    Some
      { op = Isa.Store; dst = -1; src1 = value; src2 = base; imm = off; target = -1 }
  | Prefetch (base, off) ->
    check_reg base;
    Some
      { op = Isa.Prefetch; dst = -1; src1 = base; src2 = -1; imm = off; target = -1 }
  | Br (cond, rs1, operand, label) ->
    check_reg rs1;
    let src2, imm = split_operand operand in
    Some
      { op = Isa.Branch cond; dst = -1; src1 = rs1; src2; imm; target = resolve label }
  | Jmp label ->
    Some { op = Isa.Jump; dst = -1; src1 = -1; src2 = -1; imm = 0; target = resolve label }
  | Call label ->
    Some { op = Isa.Call; dst = -1; src1 = -1; src2 = -1; imm = 0; target = resolve label }
  | Ret -> Some { op = Isa.Ret; dst = -1; src1 = -1; src2 = -1; imm = 0; target = -1 }
  | Nop -> Some { op = Isa.Nop; dst = -1; src1 = -1; src2 = -1; imm = 0; target = -1 }
  | Halt -> Some { op = Isa.Halt; dst = -1; src1 = -1; src2 = -1; imm = 0; target = -1 }

let assemble ~name insts =
  let labels = collect_labels insts in
  let code = List.filter_map (decode labels) insts in
  let labels = Hashtbl.fold (fun k v acc -> (k, v) :: acc) labels [] in
  let labels = List.sort (fun (_, a) (_, b) -> compare a b) labels in
  { name; code = Array.of_list code; labels }

let pp_reg fmt r = if r < 0 then Format.pp_print_string fmt "_" else Format.fprintf fmt "r%d" r

let pp_decoded fmt d =
  let name = Isa.op_name d.op in
  match d.op with
  | Isa.Li -> Format.fprintf fmt "li %a, %d" pp_reg d.dst d.imm
  | Isa.Alu _ ->
    if d.src2 >= 0 then
      Format.fprintf fmt "%s %a, %a, %a" name pp_reg d.dst pp_reg d.src1 pp_reg d.src2
    else Format.fprintf fmt "%s %a, %a, %d" name pp_reg d.dst pp_reg d.src1 d.imm
  | Isa.Mul | Isa.Div | Isa.Fp_add | Isa.Fp_mul | Isa.Fp_div ->
    Format.fprintf fmt "%s %a, %a, %a" name pp_reg d.dst pp_reg d.src1 pp_reg d.src2
  | Isa.Load -> Format.fprintf fmt "ld %a, %d(%a)" pp_reg d.dst d.imm pp_reg d.src1
  | Isa.Store -> Format.fprintf fmt "st %a, %d(%a)" pp_reg d.src1 d.imm pp_reg d.src2
  | Isa.Prefetch -> Format.fprintf fmt "prefetch %d(%a)" d.imm pp_reg d.src1
  | Isa.Branch _ ->
    if d.src2 >= 0 then
      Format.fprintf fmt "%s %a, %a, @%d" name pp_reg d.src1 pp_reg d.src2 d.target
    else Format.fprintf fmt "%s %a, %d, @%d" name pp_reg d.src1 d.imm d.target
  | Isa.Jump | Isa.Call -> Format.fprintf fmt "%s @%d" name d.target
  | Isa.Ret | Isa.Nop | Isa.Halt -> Format.pp_print_string fmt name
