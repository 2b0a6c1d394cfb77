(* deepsjeng proxy: game-tree evaluation.  The working set (piece tables,
   history) is cache-resident, but move ordering depends on pseudo-random
   evaluation scores, producing hard-to-predict branches whose outcomes are
   computed by short ALU/load slices.  Per the paper (Section 5.3),
   deepsjeng gains over 3% from branch slices alone. *)

let make ?(input = Workload.Ref) ?(instrs = 240_000) () =
  let rng = Prng.create (Workload.seed_of input) in
  let mb = Mem_builder.create () in
  (* Small score table: fits in L1/LLC, so loads hit, but values are
     random, so the comparison branches are unpredictable. *)
  let table_count = 2048 in
  let table = Mem_builder.int_array mb (Array.init table_count (fun _ -> Prng.int rng 4096)) in
  let history = Mem_builder.int_array mb (Array.make 512 0) in
  let buf, buf_init = Kernel_util.scratch_buffer mb in
  let pos = 1 and t = 2 and addr = 3 and score = 4 and best = 5 in
  let alpha = 6 and i = 7 and tb = 8 and hb = 9 and h = 10 in
  let open Program in
  let code =
    [ Label "search";
      (* position hash -> score table index *)
      Mul (t, pos, h);
      Alu (Isa.Xor, t, t, Imm 0x9e37);
      Alu (Isa.Shr, pos, t, Imm 3);
      Alu (Isa.And, t, pos, Imm (table_count - 1));
      Alu (Isa.Shl, addr, t, Imm 3);
      Alu (Isa.Add, addr, addr, Reg tb);
      Ld (score, addr, 0) ]  (* cache-resident, random value *)
    (* position evaluation consuming the score *)
    @ Kernel_util.payload ~tag:"sjeng-eval" ~dep:score ~buf ~loads:6 ~fp_ops:20
        ~stores:8 ()
    @ [ Br (Isa.Lt, score, Reg alpha, "prune");  (* hard: value is random *)
      (* improve best, touch the history heuristic *)
      Alu (Isa.Add, best, best, Reg score);
      Alu (Isa.And, t, score, Imm 511);
      Alu (Isa.Shl, t, t, Imm 3);
      Alu (Isa.Add, t, t, Reg hb);
      Ld (h, t, 0);
      Alu (Isa.Add, h, h, Imm 1);
      St (h, t, 0);
      Jmp "next";
      Label "prune";
      Alu (Isa.Sub, best, best, Imm 1);
      Alu (Isa.Add, h, h, Imm 3);
      Label "next";
      Alu (Isa.Add, i, i, Imm 1);
      Br (Isa.Lt, i, Imm 1_000_000, "search");
      Halt ]
  in
  { Workload.name = "deepsjeng";
    description = "game-tree search with unpredictable score-comparison branches";
    program = assemble ~name:"deepsjeng" code;
    reg_init =
      [ (pos, 12345); (alpha, 2048); (tb, table); (hb, history); (h, 7); (best, 0);
        (i, 0); buf_init ];
    mem_init = Mem_builder.image mb;
    max_instrs = instrs }
