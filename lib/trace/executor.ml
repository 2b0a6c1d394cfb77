type dyn = {
  pc : int;
  op : Isa.op;
  dst : int;
  src1 : int;
  src2 : int;
  addr : int;
  taken : bool;
  next_pc : int;
}

type t = {
  prog : Program.t;
  dyns : dyn array;
  halted : bool;
}

let dummy_dyn =
  { pc = 0; op = Isa.Nop; dst = -1; src1 = -1; src2 = -1; addr = -1; taken = false;
    next_pc = 0 }

let alu_eval kind a b =
  match kind with
  | Isa.Add -> a + b
  | Isa.Sub -> a - b
  | Isa.And -> a land b
  | Isa.Or -> a lor b
  | Isa.Xor -> a lxor b
  | Isa.Shl -> a lsl (b land 63)
  | Isa.Shr -> a lsr (b land 63)
  | Isa.Cmp -> compare a b
  | Isa.Mov -> a

let cond_eval cond a b =
  match cond with
  | Isa.Eq -> a = b
  | Isa.Ne -> a <> b
  | Isa.Lt -> a < b
  | Isa.Ge -> a >= b
  | Isa.Le -> a <= b
  | Isa.Gt -> a > b

let run ?(reg_init = []) ?mem_init ?on_step ~max_instrs prog =
  let code : Program.decoded array = prog.Program.code in
  let n = Array.length code in
  let regs = Array.make Isa.num_regs 0 in
  List.iter (fun (r, v) -> regs.(r) <- v) reg_init;
  let mem =
    match mem_init with Some m -> Mem_image.copy_on_write m | None -> Mem_image.create ()
  in
  let call_stack = ref [] in
  let dyns = Vec.create ~capacity:(min max_instrs 65536) ~dummy:dummy_dyn () in
  let halted = ref false in
  let pc = ref 0 in
  let count = ref 0 in
  while (not !halted) && !pc >= 0 && !pc < n && !count < max_instrs do
    (match on_step with Some f -> f !pc regs | None -> ());
    let d = code.(!pc) in
    let operand2 = if d.src2 >= 0 then regs.(d.src2) else d.imm in
    let addr = ref (-1) in
    let taken = ref false in
    let next = ref (!pc + 1) in
    (match d.op with
    | Isa.Li -> regs.(d.dst) <- d.imm
    | Isa.Alu kind -> regs.(d.dst) <- alu_eval kind regs.(d.src1) operand2
    | Isa.Mul -> regs.(d.dst) <- regs.(d.src1) * regs.(d.src2)
    | Isa.Div ->
      let b = regs.(d.src2) in
      regs.(d.dst) <- (if b = 0 then 0 else regs.(d.src1) / b)
    | Isa.Fp_add -> regs.(d.dst) <- regs.(d.src1) + regs.(d.src2)
    | Isa.Fp_mul -> regs.(d.dst) <- regs.(d.src1) * regs.(d.src2)
    | Isa.Fp_div ->
      let b = regs.(d.src2) in
      regs.(d.dst) <- (if b = 0 then 0 else regs.(d.src1) / b)
    | Isa.Load ->
      addr := regs.(d.src1) + d.imm;
      regs.(d.dst) <- Mem_image.get mem !addr
    | Isa.Store ->
      addr := regs.(d.src2) + d.imm;
      Mem_image.set mem !addr regs.(d.src1)
    | Isa.Prefetch -> addr := regs.(d.src1) + d.imm
    | Isa.Branch cond ->
      if cond_eval cond regs.(d.src1) operand2 then begin
        taken := true;
        next := d.target
      end
    | Isa.Jump ->
      taken := true;
      next := d.target
    | Isa.Call ->
      taken := true;
      call_stack := (!pc + 1) :: !call_stack;
      next := d.target
    | Isa.Ret -> begin
      taken := true;
      match !call_stack with
      | ret :: rest ->
        call_stack := rest;
        next := ret
      | [] -> halted := true
    end
    | Isa.Nop -> ()
    | Isa.Halt -> halted := true);
    Vec.push dyns
      { pc = !pc; op = d.op; dst = d.dst; src1 = d.src1; src2 = d.src2; addr = !addr;
        taken = !taken; next_pc = !next };
    pc := !next;
    incr count
  done;
  { prog; dyns = Vec.to_array dyns; halted = !halted }

let count_if pred t = Array.fold_left (fun acc d -> if pred d then acc + 1 else acc) 0 t.dyns

let load_count t = count_if (fun d -> d.op = Isa.Load) t

let branch_count t = count_if (fun d -> Isa.is_conditional d.op) t
