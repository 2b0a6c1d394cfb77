(* lbm proxy: lattice-Boltzmann-style grid sweep.  The cell stream is
   prefetcher-covered, but every cell carries a pseudo-random obstacle flag
   that steers a hard-to-predict branch in front of the floating-point
   collision kernel, and obstacle cells gather from an irregular neighbor
   region.  As in the paper (Sections 3.4, 5.3), load slices alone are
   throttled by the branch-bound frontend; branch slices unlock them. *)

let make ?(input = Workload.Ref) ?(instrs = 240_000) () =
  let rng = Prng.create (Workload.seed_of input) in
  let scale = Workload.scale_of input in
  let mb = Mem_builder.create () in
  let cells = max 4096 (instrs / 66 * 11 / 10) in
  let grid_base = Mem_builder.alloc mb ~bytes:(cells * 16) in
  let neighbor_count = int_of_float (90_000. *. scale) in
  let neighbors_base = Mem_builder.alloc mb ~bytes:(neighbor_count * 64) in
  for i = 0 to neighbor_count - 1 do
    Mem_builder.write mb ~addr:(neighbors_base + (i * 64)) (Prng.int rng 512)
  done;
  for i = 0 to cells - 1 do
    (* flag low bit is pseudo-random: the branch is data-dependent *)
    Mem_builder.write mb ~addr:(grid_base + (i * 16)) (Prng.int rng 2);
    Mem_builder.write mb ~addr:(grid_base + (i * 16) + 8) (Prng.int rng neighbor_count)
  done;
  let buf, buf_init = Kernel_util.scratch_buffer mb in
  let cell = 1 and cell_end = 2 and flag = 3 and nidx = 4 and t = 5 in
  let naddr = 6 and rho = 7 and u = 8 and f0 = 9 and nbase = 10 in
  let open Program in
  let code =
    [ Label "loop";
      (* neighbor density gather: irregular, delinquent *)
      Ld (nidx, cell, 8);
      Alu (Isa.Shl, t, nidx, Imm 6);
      Alu (Isa.Add, naddr, nbase, Reg t);
      Ld (rho, naddr, 0) ]
    (* collision update consuming the density: the deprioritisable burst *)
    @ Kernel_util.payload ~tag:"lbm-collide" ~dep:rho ~buf ~loads:6 ~fp_ops:26
        ~stores:12 ()
    (* the obstacle test depends on the gathered density, so the branch
       resolves only after the miss — the paper's lbm pathology where
       mispredictions gate the decoupled frontend (Section 5.3) *)
    @ [ Alu (Isa.And, flag, rho, Imm 1);
      Br (Isa.Eq, flag, Imm 0, "fluid");  (* hard: density parity is random *)
      Fadd (u, u, rho);
      Jmp "next";
      Label "fluid";
      (* collision kernel: abundant independent FP work *)
      Fmul (f0, f0, u);
      Fadd (f0, f0, rho);
      Fmul (u, u, f0);
      Fadd (u, u, rho);
      Fmul (f0, f0, u);
      Fadd (f0, f0, u);
      Fmul (u, u, f0);
      Fadd (u, u, f0);
      Label "next";
      Alu (Isa.Add, cell, cell, Imm 16);
      Br (Isa.Lt, cell, Reg cell_end, "loop");
      Li (cell, grid_base);
      Jmp "loop" ]
  in
  { Workload.name = "lbm";
    description = "grid sweep with data-dependent obstacle branches and gathers";
    program = assemble ~name:"lbm" code;
    reg_init =
      [ (cell, grid_base); (cell_end, grid_base + (cells * 16)); (nbase, neighbors_base);
        (rho, 3); (u, 5); (f0, 7); buf_init ];
    mem_init = Mem_builder.image mb;
    max_instrs = instrs }
