(* bwaves proxy: blocked solver phase with many independent gathers in
   flight.  The loads have a high LLC MPKI but execute in phases of high
   memory-level parallelism, so their latency is already overlapped.  As
   the paper observes (Section 5.2), CRISP's software profile recognises
   the high MLP and declines to tag them, while IBDA's delinquent load
   table captures them and prioritises uselessly. *)

let make ?(input = Workload.Ref) ?(instrs = 240_000) () =
  let rng = Prng.create (Workload.seed_of input) in
  let scale = Workload.scale_of input in
  let mb = Mem_builder.create () in
  let field_count = int_of_float (200_000. *. scale) in
  let field = Mem_builder.alloc mb ~bytes:(field_count * 8) in
  for i = 0 to field_count - 1 do
    Mem_builder.write mb ~addr:(field + (i * 8)) ((i * 5) + 3)
  done;
  (* Eight independent linear-congruential index streams -> eight
     independent gathers per iteration. *)
  let seeds = Array.init 8 (fun _ -> Prng.int rng field_count) in
  let idx0 = 1 and t = 9 and addr = 10 and acc = 11 and n = 12 and i = 13 in
  let v = 14 in
  let open Program in
  let gather k =
    let idx = idx0 + k in
    [ Mul (t, idx, n);  (* idx = (idx * 29 + k') mod field_count, in registers *)
      Alu (Isa.Add, t, t, Imm ((k * 7919) + 13));
      Alu (Isa.Shr, idx, t, Imm 5);
      Alu (Isa.And, idx, idx, Imm 0x1FFFF);
      Alu (Isa.Shl, addr, idx, Imm 3);
      Alu (Isa.Add, addr, addr, Imm field);
      Ld (v, addr, 0);  (* independent gather: high MLP *)
      Fadd (acc, acc, v) ]
  in
  let code =
    [ Label "loop" ]
    @ List.concat_map gather [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    @ [ Alu (Isa.Add, i, i, Imm 1);
        Br (Isa.Lt, i, Imm 1_000_000, "loop");
        Halt ]
  in
  { Workload.name = "bwaves";
    description = "blocked solver with eight independent gather streams (high MLP)";
    program = assemble ~name:"bwaves" code;
    reg_init =
      ((n, 29) :: (acc, 1) :: (i, 0)
      :: List.init 8 (fun k -> (idx0 + k, seeds.(k))));
    mem_init = Mem_builder.image mb;
    max_instrs = instrs }
