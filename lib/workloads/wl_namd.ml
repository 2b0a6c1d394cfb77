(* namd proxy: molecular dynamics with register spills.  Like nab, but the
   gather's address is passed through a stack slot (store then reload),
   exactly the x86 register-spilling pattern of Figure 3 line 31.  CRISP's
   trace slicer follows the dependency through memory; IBDA cannot, so it
   misses the heart of the load slice (paper Section 5.2: "in namd and
   Xhpcg, IBDA misses important load slices due to its inability of
   following dependencies through memory"). *)

let make ?(input = Workload.Ref) ?(instrs = 240_000) () =
  let rng = Prng.create (Workload.seed_of input) in
  let scale = Workload.scale_of input in
  let mb = Mem_builder.create () in
  let atom_count = int_of_float (110_000. *. scale) in
  let pos_base = Mem_builder.alloc mb ~bytes:(atom_count * 64) in
  for i = 0 to atom_count - 1 do
    Mem_builder.write mb ~addr:(pos_base + (i * 64)) (Prng.int rng 1000)
  done;
  let pair_count = max 4096 (instrs / 66 * 11 / 10) in
  let pairs_base =
    Mem_builder.int_array mb (Array.init pair_count (fun _ -> Prng.int rng atom_count))
  in
  let stack = Mem_builder.alloc mb ~bytes:64 in
  let buf, buf_init = Kernel_util.scratch_buffer mb in
  let ptr = 1 and pend = 2 and nidx = 3 and t = 4 and paddr = 5 in
  let d = 6 and f = 7 and acc = 8 and pb = 9 and sp = 10 and cutoff = 11 in
  let open Program in
  let code =
    [ Label "loop";
      Ld (nidx, ptr, 0);
      Alu (Isa.Shl, t, nidx, Imm 6);
      Alu (Isa.Add, paddr, pb, Reg t);
      (* spill the gather address to the stack and reload it: the address
         dependency now flows through memory *)
      St (paddr, sp, 0);
      Fmul (f, f, acc);  (* unrelated work clobbers the register file *)
      Fadd (f, f, d);
      Ld (paddr, sp, 0);  (* reload: dependency through memory *)
      Ld (d, paddr, 0) ]  (* delinquent gather *)
    @ Kernel_util.payload ~tag:"namd-energy" ~dep:d ~buf ~loads:6 ~fp_ops:24
        ~stores:10 ()
    @ [ Br (Isa.Ge, d, Reg cutoff, "skip");
      Fmul (f, d, d);
      Fadd (f, f, d);
      Fmul (f, f, f);
      Fadd (acc, acc, f);
      Label "skip";
      Fadd (acc, acc, d);
      Alu (Isa.Add, ptr, ptr, Imm 8);
      Br (Isa.Lt, ptr, Reg pend, "loop");
      Li (ptr, pairs_base);
      Jmp "loop" ]
  in
  { Workload.name = "namd";
    description = "pair loop whose gather address is spilled through the stack";
    program = assemble ~name:"namd" code;
    reg_init =
      [ (ptr, pairs_base); (pend, pairs_base + (pair_count * 8)); (pb, pos_base);
        (sp, stack); (cutoff, 780); (acc, 1); (d, 1); (f, 1); buf_init ];
    mem_init = Mem_builder.image mb;
    max_instrs = instrs }
