(* img-dnn proxy (TailBench): dense inference.  Weight rows stream from a
   large matrix (prefetcher-covered), activations are cache-resident, and
   the ReLU branch is biased.  Mostly compute-bound: CRISP finds little to
   accelerate, matching the small gains in the paper. *)

let make ?(input = Workload.Ref) ?(instrs = 240_000) () =
  let rng = Prng.create (Workload.seed_of input) in
  let scale = Workload.scale_of input in
  let mb = Mem_builder.create () in
  let dim = 64 in
  let rows = int_of_float (3000. *. scale) in
  let weights = Mem_builder.alloc mb ~bytes:(rows * dim * 8) in
  for i = 0 to (rows * dim) - 1 do
    Mem_builder.write mb ~addr:(weights + (i * 8)) (Prng.int rng 200 - 100)
  done;
  let activations =
    Mem_builder.int_array mb (Array.init dim (fun _ -> Prng.int rng 100))
  in
  let outputs = Mem_builder.alloc mb ~bytes:(rows * 8) in
  let wp = 1 and wend = 2 and k = 3 and t = 4 and w = 5 in
  let x = 6 and acc = 7 and ab = 8 and r = 10 in
  let open Program in
  let code =
    [ Label "row";
      Li (acc, 0);
      Li (k, 0);
      Label "dot";
      Ld (w, wp, 0);  (* weight: streams *)
      Alu (Isa.Shl, t, k, Imm 3);
      Alu (Isa.Add, t, t, Reg ab);
      Ld (x, t, 0);  (* activation: cache-resident *)
      Fmul (w, w, x);
      Fadd (acc, acc, w);
      Alu (Isa.Add, wp, wp, Imm 8);
      Alu (Isa.Add, k, k, Imm 1);
      Br (Isa.Lt, k, Imm dim, "dot");
      Br (Isa.Ge, acc, Imm 0, "relu");  (* biased branch *)
      Li (acc, 0);
      Label "relu";
      Alu (Isa.Shl, t, r, Imm 3);
      Alu (Isa.Add, t, t, Imm outputs);
      St (acc, t, 0);
      Alu (Isa.Add, r, r, Imm 1);
      Br (Isa.Lt, wp, Reg wend, "row");
      Li (wp, weights);
      Li (r, 0);
      Jmp "row" ]
  in
  { Workload.name = "imgdnn";
    description = "dense inference: streaming weights, resident activations";
    program = assemble ~name:"imgdnn" code;
    reg_init =
      [ (wp, weights); (wend, weights + (rows * dim * 8)); (ab, activations); (r, 0) ];
    mem_init = Mem_builder.image mb;
    max_instrs = instrs }
