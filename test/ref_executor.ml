(* The record-per-micro-op executor that the packed two-column trace
   replaced, kept as the oracle for [Executor]: it stores every field of
   every micro-op, so [agree] can check that the columns plus the static
   program give back exactly the same trace. *)

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
  dyns : dyn array;
  halted : bool;
}

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

let run ?(reg_init = []) ?mem_init ~max_instrs prog =
  let code : Program.decoded array = prog.Program.code in
  let n = Array.length code in
  let regs = Array.make Isa.num_regs 0 in
  List.iter (fun (r, v) -> regs.(r) <- v) reg_init;
  let mem =
    match mem_init with Some m -> Mem_image.copy_on_write m | None -> Mem_image.create ()
  in
  let call_stack = ref [] in
  let dyns = ref [] in
  let halted = ref false in
  let pc = ref 0 in
  let count = ref 0 in
  while (not !halted) && !pc >= 0 && !pc < n && !count < max_instrs do
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
    dyns :=
      { pc = !pc; op = d.op; dst = d.dst; src1 = d.src1; src2 = d.src2; addr = !addr;
        taken = !taken; next_pc = !next }
      :: !dyns;
    pc := !next;
    incr count
  done;
  { dyns = Array.of_list (List.rev !dyns); halted = !halted }

(* [None] when the packed trace reads back as the reference one at
   every index, else the first disagreement. *)
let agree (r : t) (t : Executor.t) =
  let n = Array.length r.dyns in
  let mismatch i =
    let e = r.dyns.(i) and d = Executor.decoded t i in
    List.find_opt
      (fun (_, ok) -> not ok)
      [ ("pc", Executor.pc t i = e.pc);
        ("taken", Executor.taken t i = e.taken);
        ("addr", Executor.addr t i = e.addr);
        ("op", Executor.op t i = e.op && d.Program.op = e.op);
        ("dst", d.Program.dst = e.dst);
        ("src1", d.Program.src1 = e.src1);
        ("src2", d.Program.src2 = e.src2);
        ("next_pc", Executor.next_pc t i = e.next_pc) ]
    |> Option.map (fun (name, _) ->
           Printf.sprintf "%s differs at micro-op %d of %d" name i n)
  in
  if Executor.length t <> n then
    Some (Printf.sprintf "length %d, reference %d" (Executor.length t) n)
  else if t.Executor.halted <> r.halted then Some "halted differs"
  else Seq.find_map mismatch (Seq.init n Fun.id)
