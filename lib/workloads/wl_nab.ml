(* nab proxy: molecular-dynamics force loop.  Neighbor indices stream; the
   position gather is irregular and the cutoff test compares noisy
   distances, giving a data-dependent branch with a ~25% taken rate that
   TAGE cannot learn.  Branch slices alone give a solid gain (paper Figure
   8) because resolving the cutoff early un-blocks the frontend. *)

let make ?(input = Workload.Ref) ?(instrs = 240_000) () =
  let rng = Prng.create (Workload.seed_of input) in
  let scale = Workload.scale_of input in
  let mb = Mem_builder.create () in
  let atom_count = int_of_float (110_000. *. scale) in
  let pos_base = Mem_builder.alloc mb ~bytes:(atom_count * 64) in
  for i = 0 to atom_count - 1 do
    Mem_builder.write mb ~addr:(pos_base + (i * 64)) (Prng.int rng 1000)
  done;
  let pair_count = max 4096 (instrs / 62 * 11 / 10) in
  let pairs_base =
    Mem_builder.int_array mb (Array.init pair_count (fun _ -> Prng.int rng atom_count))
  in
  let buf, buf_init = Kernel_util.scratch_buffer mb in
  let ptr = 1 and pend = 2 and nidx = 3 and t = 4 and paddr = 5 in
  let d = 6 and f = 7 and acc = 8 and pb = 9 and cutoff = 10 in
  let open Program in
  let code =
    [ Label "loop";
      Ld (nidx, ptr, 0);  (* neighbor index: streams *)
      Alu (Isa.Shl, t, nidx, Imm 6);
      Alu (Isa.Add, paddr, pb, Reg t);
      Ld (d, paddr, 0) ]  (* irregular position gather *)
    (* pairwise energy terms consuming the distance *)
    @ Kernel_util.payload ~tag:"nab-energy" ~dep:d ~buf ~loads:6 ~fp_ops:24
        ~stores:10 ()
    @ [ Br (Isa.Ge, d, Reg cutoff, "skip");  (* cutoff: ~25% taken, data-dependent *)
      (* inside cutoff: force computation *)
      Fmul (f, d, d);
      Fadd (f, f, d);
      Fmul (f, f, f);
      Fadd (acc, acc, f);
      Fmul (acc, acc, d);
      Fadd (acc, acc, f);
      Label "skip";
      Alu (Isa.Add, ptr, ptr, Imm 8);
      Br (Isa.Lt, ptr, Reg pend, "loop");
      Li (ptr, pairs_base);
      Jmp "loop" ]
  in
  { Workload.name = "nab";
    description = "molecular-dynamics pair loop with a data-dependent cutoff branch";
    program = assemble ~name:"nab" code;
    reg_init =
      [ (ptr, pairs_base); (pend, pairs_base + (pair_count * 8)); (pb, pos_base);
        (cutoff, 750); (acc, 1); buf_init ];
    mem_init = Mem_builder.image mb;
    max_instrs = instrs }
