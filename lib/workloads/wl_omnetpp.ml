(* omnetpp proxy: discrete-event simulation.  The future-event set is a
   pointer-linked search structure spread over a multi-MiB heap; each
   lookup descends several levels, choosing the child by comparing loaded
   timestamps.  The descent direction is data-dependent (hard branches)
   and every level is a dependent pointer load (delinquent), so load and
   branch slices compound. *)

let make ?(input = Workload.Ref) ?(instrs = 240_000) () =
  let rng = Prng.create (Workload.seed_of input) in
  let scale = Workload.scale_of input in
  let mb = Mem_builder.create () in
  let node_count = int_of_float (140_000. *. scale) in
  let heap = Mem_builder.alloc mb ~bytes:(node_count * 64) in
  let order = Mem_builder.shuffled_indices rng ~n:node_count in
  let addr_of i = heap + (order.(i) * 64) in
  for i = 0 to node_count - 1 do
    let addr = addr_of i in
    (* node: [key, left, right] with random children *)
    Mem_builder.write mb ~addr (Prng.int rng 1_000_000);
    Mem_builder.write mb ~addr:(addr + 8) (addr_of (Prng.int rng node_count));
    Mem_builder.write mb ~addr:(addr + 16) (addr_of (Prng.int rng node_count))
  done;
  let buf, buf_init = Kernel_util.scratch_buffer mb in
  let cur = 1 and key = 2 and target = 3 and lvl = 4 and acc = 5 and i = 6 in
  let root = 7 in
  let open Program in
  let code =
    [ Label "event";
      (* evolve the search key pseudo-randomly *)
      Mul (target, target, i);
      Alu (Isa.Xor, target, target, Imm 0x5bd1);
      Alu (Isa.Shr, target, target, Imm 2);
      Alu (Isa.And, target, target, Imm 0xFFFFF);
      (* the walk continues from the current node, roaming the whole heap *)
      Li (lvl, 0);
      Label "descend";
      Ld (key, cur, 0) ]  (* delinquent: node spread over the heap *)
    (* event bookkeeping consuming the timestamp: competes with the branch
       and the child-pointer loads *)
    @ Kernel_util.payload ~tag:"omnetpp-event" ~dep:key ~buf ~loads:6 ~fp_ops:22
        ~stores:12 ()
    @ [ Br (Isa.Lt, key, Reg target, "right");  (* hard: key is random *)
      Ld (cur, cur, 8);  (* left child pointer *)
      Jmp "cont";
      Label "right";
      Ld (cur, cur, 16);  (* right child pointer *)
      Label "cont";
      Alu (Isa.Add, acc, acc, Reg key);
      Alu (Isa.Add, lvl, lvl, Imm 1);
      Br (Isa.Lt, lvl, Imm 4, "descend");
      Alu (Isa.Add, i, i, Imm 2);
      Br (Isa.Lt, i, Imm 100_000_000, "event");
      Halt ]
  in
  ignore root;
  { Workload.name = "omnetpp";
    description = "event-set descent: dependent pointer loads steered by hard branches";
    program = assemble ~name:"omnetpp" code;
    reg_init =
      [ (cur, heap + (order.(0) * 64)); (target, 77); (i, 3); (acc, 0); buf_init ];
    mem_init = Mem_builder.image mb;
    max_instrs = instrs }
