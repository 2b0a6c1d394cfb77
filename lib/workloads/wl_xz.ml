(* xz proxy: LZMA-style match finder.  A rolling hash of the input window
   selects a hash-chain head in a multi-MiB table (delinquent), and the
   chain is walked through the window (dependent delinquent loads).  The
   literal/match decision branch is data-dependent. *)

let make ?(input = Workload.Ref) ?(instrs = 240_000) () =
  let rng = Prng.create (Workload.seed_of input) in
  let scale = Workload.scale_of input in
  let mb = Mem_builder.create () in
  let window_count = int_of_float (180_000. *. scale) in
  let window = Mem_builder.alloc mb ~bytes:(window_count * 8) in
  for i = 0 to window_count - 1 do
    Mem_builder.write mb ~addr:(window + (i * 8)) (Prng.int rng 256)
  done;
  let hash_bits = 16 in
  let head_base = Mem_builder.alloc mb ~bytes:((1 lsl hash_bits) * 64) in
  for i = 0 to (1 lsl hash_bits) - 1 do
    Mem_builder.write mb ~addr:(head_base + (i * 64)) (Prng.int rng window_count)
  done;
  let chain_base = Mem_builder.alloc mb ~bytes:(window_count * 64) in
  for i = 0 to window_count - 1 do
    Mem_builder.write mb ~addr:(chain_base + (i * 64)) (Prng.int rng window_count);
    Mem_builder.write mb ~addr:(chain_base + (i * 64) + 8) (Prng.int rng 256)
  done;
  let buf, buf_init = Kernel_util.scratch_buffer mb in
  let pos = 1 and byte = 2 and hsh = 3 and t = 4 and cand = 5 in
  let caddr = 6 and cbyte = 7 and acc = 8 and wb = 9 and hb = 10 and cb = 11 in
  let depth = 12 in
  let open Program in
  let code =
    [ Label "loop";
      Alu (Isa.Shl, t, pos, Imm 3);
      Alu (Isa.Add, t, t, Reg wb);
      Ld (byte, t, 0);  (* input byte: streams *)
      (* rolling hash *)
      Mul (hsh, byte, pos);
      Alu (Isa.Xor, hsh, hsh, Imm 0x2545);
      Alu (Isa.Shr, t, hsh, Imm 5);
      Alu (Isa.Xor, hsh, hsh, Reg t);
      Alu (Isa.And, hsh, hsh, Imm ((1 lsl hash_bits) - 1));
      Alu (Isa.Shl, t, hsh, Imm 6);
      Alu (Isa.Add, t, t, Reg hb);
      Ld (cand, t, 0);  (* delinquent hash-head load *)
      Li (depth, 0);
      Label "chain";
      Alu (Isa.Shl, t, cand, Imm 6);
      Alu (Isa.Add, caddr, cb, Reg t);
      Ld (cbyte, caddr, 8) ]  (* candidate byte *)
    (* match-length scoring consuming the candidate byte *)
    @ Kernel_util.payload ~tag:"xz-score" ~dep:cbyte ~buf ~loads:6 ~fp_ops:20
        ~stores:10 ()
    @ [ Br (Isa.Eq, cbyte, Reg byte, "match");  (* rare, mostly not taken *)
      Ld (cand, caddr, 0);  (* dependent chain walk: delinquent *)
      Alu (Isa.Add, depth, depth, Imm 1);
      Br (Isa.Lt, depth, Imm 2, "chain");
      Jmp "emit_literal";
      Label "match";
      Alu (Isa.Add, acc, acc, Reg cand);
      Label "emit_literal";
      Alu (Isa.Add, acc, acc, Reg byte);
      Alu (Isa.Add, pos, pos, Imm 1);
      Br (Isa.Lt, pos, Imm window_count, "loop");
      Li (pos, 0);
      Jmp "loop" ]
  in
  { Workload.name = "xz";
    description = "LZ match finder: hash-chain walks through a large window";
    program = assemble ~name:"xz" code;
    reg_init =
      [ (pos, 0); (wb, window); (hb, head_base); (cb, chain_base); (acc, 0); buf_init ];
    mem_init = Mem_builder.image mb;
    max_instrs = instrs }
