(* cactusBSSN proxy: stencil sweep over a grid larger than the LLC.  The
   five-point neighborhood streams (prefetcher-covered) but each cell also
   performs an indirect lookup into a material table addressed by loaded
   data, and a material-type branch is weakly biased.  Load and branch
   slices are individually modest and synergistic when combined (paper
   Figure 8). *)

let make ?(input = Workload.Ref) ?(instrs = 240_000) () =
  let rng = Prng.create (Workload.seed_of input) in
  let scale = Workload.scale_of input in
  let mb = Mem_builder.create () in
  let mat_count = int_of_float (100_000. *. scale) in
  let mat_base = Mem_builder.alloc mb ~bytes:(mat_count * 64) in
  for i = 0 to mat_count - 1 do
    Mem_builder.write mb ~addr:(mat_base + (i * 64)) (Prng.int rng 100)
  done;
  let cells = max 4096 (instrs / 64 * 11 / 10) in
  let grid = Mem_builder.alloc mb ~bytes:((cells + 16) * 16) in
  for i = 0 to cells + 15 do
    Mem_builder.write mb ~addr:(grid + (i * 16)) (Prng.int rng 4096);
    Mem_builder.write mb ~addr:(grid + (i * 16) + 8) (Prng.int rng mat_count)
  done;
  let buf, buf_init = Kernel_util.scratch_buffer mb in
  let cell = 1 and cend = 2 and c0 = 3 and c1 = 4 and c2 = 5 and t = 6 in
  let midx = 7 and maddr = 8 and stiff = 9 and acc = 10 and mbase = 11 in
  let open Program in
  let code =
    [ Label "loop";
      Ld (c0, cell, 0);  (* stencil reads: stream *)
      Ld (c1, cell, 16);
      Ld (c2, cell, 32);
      Fadd (c0, c0, c1);
      Fadd (c0, c0, c2);
      Ld (midx, cell, 8);  (* material index, loaded *)
      Alu (Isa.Shl, t, midx, Imm 6);
      Alu (Isa.Add, maddr, mbase, Reg t);
      Ld (stiff, maddr, 0) ]  (* delinquent indirect material lookup *)
    (* constitutive update consuming the stiffness *)
    @ Kernel_util.payload ~tag:"cactus-update" ~dep:stiff ~buf ~loads:6 ~fp_ops:22
        ~stores:10 ()
    @ [ Br (Isa.Lt, stiff, Imm 20, "soft");  (* ~20% taken, data-dependent *)
      Fmul (acc, acc, stiff);
      Fadd (acc, acc, c0);
      Fmul (c0, c0, stiff);
      Fadd (acc, acc, c0);
      Jmp "next";
      Label "soft";
      Fadd (acc, acc, c0);
      Label "next";
      St (acc, cell, 0);
      Alu (Isa.Add, cell, cell, Imm 16);
      Br (Isa.Lt, cell, Reg cend, "loop");
      Li (cell, grid);
      Jmp "loop" ]
  in
  { Workload.name = "cactus";
    description = "stencil sweep with indirect material lookups";
    program = assemble ~name:"cactus" code;
    reg_init =
      [ (cell, grid); (cend, grid + (cells * 16)); (mbase, mat_base); (acc, 1);
        buf_init ];
    mem_init = Mem_builder.image mb;
    max_instrs = instrs }
