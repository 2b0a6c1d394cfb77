(* perlbench proxy: interpreter-style hash lookups.  Keys stream from an
   input buffer; a multi-step hash (a long address-generating slice) indexes
   a multi-MiB bucket table whose head loads miss the LLC.  The hot code is
   unrolled into many static variants, as interpreters have, so hardware
   slice tables (IBDA's IST) face thousands of static address-generating
   instructions and over-select non-critical ones (paper Section 5.2:
   "IBDA selects too many instructions ... inducing a performance
   reduction"). *)

let variants = 40

let make ?(input = Workload.Ref) ?(instrs = 240_000) () =
  let rng = Prng.create (Workload.seed_of input) in
  let scale = Workload.scale_of input in
  let mb = Mem_builder.create () in
  let bucket_count = 1 lsl 17 in
  let table_base = Mem_builder.alloc mb ~bytes:(bucket_count * 64) in
  for i = 0 to bucket_count - 1 do
    Mem_builder.write mb ~addr:(table_base + (i * 64)) (Prng.int rng 1_000_000);
    Mem_builder.write mb ~addr:(table_base + (i * 64) + 8)
      (if Prng.int rng 8 = 0 then 1 else 0)
  done;
  let key_count = int_of_float (float_of_int (max 2048 (instrs / 24)) *. scale) in
  let keys_base =
    Mem_builder.int_array mb (Array.init key_count (fun _ -> Prng.int rng 1_000_000_000))
  in
  let buf, buf_init = Kernel_util.scratch_buffer mb in
  let kp = 1 and key = 2 and hsh = 3 and t = 4 and addr = 5 and head = 6 in
  let flag = 7 and acc = 8 and tb = 9 and i = 10 and kend = 11 in
  let open Program in
  (* One unrolled lookup variant; [v] perturbs the hash constants so each
     variant is a distinct static slice. *)
  let variant v next =
    [ Label (Printf.sprintf "op%d" v);
      Ld (key, kp, 0);
      Alu (Isa.Add, kp, kp, Imm 8);
      (* hash: a deliberately long dependent ALU chain *)
      Mul (hsh, key, i);
      Alu (Isa.Xor, hsh, hsh, Imm (0x9e3779 + v));
      Alu (Isa.Shr, t, hsh, Imm 7);
      Alu (Isa.Xor, hsh, hsh, Reg t);
      Mul (hsh, hsh, key);
      Alu (Isa.Shr, t, hsh, Imm 11);
      Alu (Isa.Xor, hsh, hsh, Reg t);
      Alu (Isa.And, hsh, hsh, Imm (bucket_count - 1));
      Alu (Isa.Shl, addr, hsh, Imm 6);
      Alu (Isa.Add, addr, addr, Reg tb);
      Ld (head, addr, 0);  (* delinquent bucket-head load *)
      Ld (flag, addr, 8) ]
    (* opcode execution consuming the looked-up value *)
    @ Kernel_util.payload ~tag:"perl-op" ~dep:head ~buf ~loads:6 ~fp_ops:22
        ~stores:10 ()
    @ [ Alu (Isa.Add, acc, acc, Reg head);
      Br (Isa.Eq, flag, Imm 0, next);  (* semi-predictable *)
      St (acc, addr, 16);
      Jmp next ]
  in
  let code =
    [ Label "loop";
      Br (Isa.Ge, kp, Reg kend, "rewind") ]
    @ List.concat
        (List.init variants (fun v ->
             let next = if v = variants - 1 then "loop_end" else Printf.sprintf "op%d" (v + 1) in
             variant v next))
    @ [ Label "loop_end";
        Alu (Isa.Add, i, i, Imm 1);
        Jmp "loop";
        Label "rewind";
        Li (kp, keys_base);
        Jmp "loop" ]
  in
  { Workload.name = "perlbench";
    description = "interpreter-style hash-table lookups with long hash slices";
    program = assemble ~name:"perlbench" code;
    reg_init =
      [ (kp, keys_base); (kend, keys_base + (key_count * 8)); (tb, table_base); (i, 3);
        (acc, 0); buf_init ];
    mem_init = Mem_builder.image mb;
    max_instrs = instrs }
