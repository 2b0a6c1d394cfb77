(* moses proxy (TailBench statistical machine translation): phrase-table
   probes.  Each probe hashes a phrase with a long ALU chain and then walks
   a three-level table, each level a dependent load into a multi-MiB
   region — a deep, serialised miss chain with very large slices.  The hot
   code is unrolled into many static probe variants, so the total slice
   footprint is far beyond a 1K-entry IST (paper Section 5.2: "in moses,
   load slices are too long and too large to be captured by the IST"). *)

let variants = 32

let make ?(input = Workload.Ref) ?(instrs = 240_000) () =
  let rng = Prng.create (Workload.seed_of input) in
  let scale = Workload.scale_of input in
  let mb = Mem_builder.create () in
  let l1_count = 1 lsl 15 in
  let l2_count = int_of_float (60_000. *. scale) in
  let l3_count = int_of_float (60_000. *. scale) in
  let l2_base = Mem_builder.alloc mb ~bytes:(l2_count * 64) in
  let l3_base = Mem_builder.alloc mb ~bytes:(l3_count * 64) in
  let l1_base = Mem_builder.alloc mb ~bytes:(l1_count * 64) in
  for i = 0 to l1_count - 1 do
    Mem_builder.write mb ~addr:(l1_base + (i * 64))
      (l2_base + (Prng.int rng l2_count * 64))
  done;
  for i = 0 to l2_count - 1 do
    Mem_builder.write mb ~addr:(l2_base + (i * 64))
      (l3_base + (Prng.int rng l3_count * 64))
  done;
  for i = 0 to l3_count - 1 do
    Mem_builder.write mb ~addr:(l3_base + (i * 64)) (Prng.int rng 10_000)
  done;
  let phrase_count = 4096 in
  let phrases =
    Mem_builder.int_array mb
      (Array.init phrase_count (fun _ -> Prng.int rng 1_000_000_000))
  in
  let ptr = 1 and phrase = 2 and hsh = 3 and t = 4 and e1 = 5 in
  let e2 = 6 and prob = 7 and acc = 8 and l1b = 9 and i = 10 and pend = 11 in
  let buf, buf_init = Kernel_util.scratch_buffer mb in
  let open Program in
  let probe v next =
    [ Label (Printf.sprintf "probe%d" v);
      Ld (phrase, ptr, 0);
      Alu (Isa.Add, ptr, ptr, Imm 8);
      (* the decoder context: the previous probe's result conditions the
         next lookup, serialising the probe chain (language-model state) *)
      Alu (Isa.Xor, phrase, phrase, Reg prob);
      (* long phrase hash: ~12 dependent ALU ops, distinct per variant *)
      Mul (hsh, phrase, i);
      Alu (Isa.Xor, hsh, hsh, Imm (0x85eb + (v * 97)));
      Alu (Isa.Shr, t, hsh, Imm 13);
      Alu (Isa.Xor, hsh, hsh, Reg t);
      Mul (hsh, hsh, phrase);
      Alu (Isa.Shr, t, hsh, Imm 9);
      Alu (Isa.Xor, hsh, hsh, Reg t);
      Mul (hsh, hsh, i);
      Alu (Isa.Shr, t, hsh, Imm 4);
      Alu (Isa.Xor, hsh, hsh, Reg t);
      Alu (Isa.And, hsh, hsh, Imm (l1_count - 1));
      Alu (Isa.Shl, t, hsh, Imm 6);
      Alu (Isa.Add, t, t, Reg l1b);
      Ld (e1, t, 0) ]  (* level 1: delinquent *)
    (* partial-match scoring at every level: each resolved miss wakes a
       burst of deprioritisable work alongside the next chain level *)
    @ Kernel_util.payload ~tag:"moses-l1-score" ~dep:e1 ~buf ~loads:8 ~fp_ops:30 ~stores:16 ()
    @ [ Ld (e2, e1, 0) ]  (* level 2: dependent, delinquent *)
    @ Kernel_util.payload ~tag:"moses-l2-score" ~dep:e2 ~buf ~loads:8 ~fp_ops:30 ~stores:16 ()
    @ [ Ld (prob, e2, 0) ]  (* level 3: dependent, delinquent *)
    @ Kernel_util.payload ~tag:"moses-l3-score" ~dep:prob ~buf ~loads:8 ~fp_ops:30 ~stores:16 ()
    @ [ Fadd (acc, acc, prob);
        Jmp next ]
  in
  let code =
    [ Label "loop";
      Br (Isa.Ge, ptr, Reg pend, "rewind") ]
    @ List.concat
        (List.init variants (fun v ->
             let next =
               if v = variants - 1 then "loop_end" else Printf.sprintf "probe%d" (v + 1)
             in
             probe v next))
    @ [ Label "loop_end";
        Alu (Isa.Add, i, i, Imm 1);
        Jmp "loop";
        Label "rewind";
        Li (ptr, phrases);
        Jmp "loop" ]
  in
  { Workload.name = "moses";
    description = "phrase-table probes: three dependent miss levels, huge slices";
    program = assemble ~name:"moses" code;
    reg_init =
      [ (ptr, phrases); (pend, phrases + (phrase_count * 8)); (l1b, l1_base); (i, 3);
        (prob, 0); (acc, 0); buf_init ];
    mem_init = Mem_builder.image mb;
    max_instrs = instrs }
