(* gcc proxy: a compiler-pass-like dispatch loop.  A large static code
   footprint (many distinct handler blocks reached through a dispatch
   chain plus two levels of calls) stresses the BTB, RAS and instruction
   cache; handlers consult mid-sized tables with mixed locality and make
   moderately predictable decisions.  gcc is one of the applications with
   the largest sets of unique critical instructions (paper Figure 11). *)

let handlers = 48

let make ?(input = Workload.Ref) ?(instrs = 240_000) () =
  let rng = Prng.create (Workload.seed_of input) in
  let scale = Workload.scale_of input in
  let mb = Mem_builder.create () in
  let sym_count = int_of_float (90_000. *. scale) in
  let symtab = Mem_builder.alloc mb ~bytes:(sym_count * 64) in
  for i = 0 to sym_count - 1 do
    Mem_builder.write mb ~addr:(symtab + (i * 64)) (Prng.int rng 512)
  done;
  let op_count = max 4096 (instrs / 30) in
  let ops_base =
    Mem_builder.int_array mb
      (Array.init op_count (fun _ -> Prng.int rng handlers))
  in
  let syms_base =
    Mem_builder.int_array mb
      (Array.init op_count (fun _ -> Prng.int rng sym_count))
  in
  let buf, buf_init = Kernel_util.scratch_buffer mb in
  let ip = 1 and iend = 2 and opc = 3 and t = 4 and sidx = 5 in
  let saddr = 6 and sym = 7 and acc = 8 and stb = 9 and off = 10 in
  let open Program in
  let handler h =
    [ Label (Printf.sprintf "h%d" h);
      (* each handler: a symbol-table lookup plus distinct ALU work *)
      Alu (Isa.Add, t, ip, Reg off);
      Ld (sidx, t, 0);
      Alu (Isa.Shl, saddr, sidx, Imm 6);
      Alu (Isa.Add, saddr, saddr, Reg stb);
      Ld (sym, saddr, 0) ]  (* mixed-locality symbol lookup *)
    @ Kernel_util.payload ~tag:"gcc-handler" ~dep:sym ~buf ~loads:4 ~fp_ops:12
        ~stores:6 ()
    @ [ Alu (Isa.Xor, acc, acc, Imm ((h * 131) + 7));
      Alu (Isa.Add, acc, acc, Reg sym);
      (* rare outlier symbols take the handler's private fixup tail, which
         adjusts the checksum and joins the shared fixup epilogue — one more
         BTB-resident block per handler *)
      Br (Isa.Gt, sym, Imm 480, Printf.sprintf "h%d_b" h);
      Ret;
      Label (Printf.sprintf "h%d_b" h);
      Alu (Isa.Sub, acc, acc, Imm h);
      Jmp "fixup" ]
  in
  let dispatch h =
    [ Br (Isa.Eq, opc, Imm h, Printf.sprintf "d%d" h) ]
  in
  let dispatch_target h =
    [ Label (Printf.sprintf "d%d" h);
      Call (Printf.sprintf "h%d" h);
      Jmp "next" ]
  in
  let code =
    [ Jmp "loop";
      Label "fixup";
      Alu (Isa.Add, acc, acc, Imm 1);
      Ret;
      Label "loop";
      Ld (opc, ip, 0);  (* opcode stream *)
      Alu (Isa.And, opc, opc, Imm (handlers - 1)) ]
    @ List.concat_map dispatch (List.init handlers Fun.id)
    @ [ Jmp "next" ]
    @ List.concat_map dispatch_target (List.init handlers Fun.id)
    @ [ Label "next";
        Alu (Isa.Add, ip, ip, Imm 8);
        Br (Isa.Lt, ip, Reg iend, "loop");
        Li (ip, ops_base);
        Jmp "loop" ]
    @ List.concat_map handler (List.init handlers Fun.id)
  in
  { Workload.name = "gcc";
    description = "dispatch loop over many handler blocks with calls and lookups";
    program = assemble ~name:"gcc" code;
    reg_init =
      [ (ip, ops_base); (iend, ops_base + (op_count * 8)); (stb, symtab);
        (off, syms_base - ops_base); (acc, 0); buf_init ];
    mem_init = Mem_builder.image mb;
    max_instrs = instrs }
