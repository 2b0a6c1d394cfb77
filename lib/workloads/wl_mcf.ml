(* mcf proxy: network-simplex-like arc scan.  The arc array streams
   sequentially (prefetcher-covered); each arc names a node by index, and
   the gather into the multi-MiB node region is irregular and delinquent.
   The address of the gather flows through memory (the index is loaded),
   which register-only IBDA cannot follow.  A data-dependent reduced-cost
   branch adds moderate misprediction pressure. *)

let make ?(input = Workload.Ref) ?(instrs = 240_000) () =
  let rng = Prng.create (Workload.seed_of input) in
  let scale = Workload.scale_of input in
  let mb = Mem_builder.create () in
  let node_count = int_of_float (120_000. *. scale) in
  let nodes_base = Mem_builder.alloc mb ~bytes:(node_count * 64) in
  for i = 0 to node_count - 1 do
    Mem_builder.write mb ~addr:(nodes_base + (i * 64)) (Prng.int rng 1000);
    Mem_builder.write mb ~addr:(nodes_base + (i * 64) + 8) 0
  done;
  let arc_count = max 4096 (instrs / 56 * 11 / 10) in
  let arcs_base = Mem_builder.alloc mb ~bytes:(arc_count * 16) in
  for i = 0 to arc_count - 1 do
    (* cost chosen so that cost < potential on roughly a quarter of arcs *)
    Mem_builder.write mb ~addr:(arcs_base + (i * 16)) (Prng.int rng 1333);
    Mem_builder.write mb ~addr:(arcs_base + (i * 16) + 8) (Prng.int rng node_count)
  done;
  let arc = 1 and arc_end = 2 and cost = 3 and nidx = 4 and t = 5 in
  let naddr = 6 and pot = 7 and red = 8 and base = 10 in
  let buf, buf_init = Kernel_util.scratch_buffer mb in
  let open Program in
  let code =
    [ Label "loop";
      Ld (cost, arc, 0);
      Ld (nidx, arc, 8);
      Alu (Isa.Shl, t, nidx, Imm 6);
      Alu (Isa.Add, naddr, base, Reg t);
      Ld (pot, naddr, 0) ]  (* delinquent gather into the node region *)
    (* cost updates consuming the gathered potential: the ready burst the
       baseline drains before restarting the pointer chain *)
    @ Kernel_util.payload ~tag:"mcf-pricing" ~dep:pot ~buf ~loads:10 ~fp_ops:28 ~stores:14 ()
    @ [ Alu (Isa.Sub, red, cost, Reg pot);
        Br (Isa.Ge, red, Imm 0, "skip");
        (* pivot path: update the node potential *)
        Alu (Isa.Add, pot, pot, Imm 1);
        St (pot, naddr, 0);
        Label "skip";
        Alu (Isa.Add, arc, arc, Imm 16);
        Br (Isa.Lt, arc, Reg arc_end, "loop");
        Li (arc, arcs_base);  (* wrap around and rescan the arc array *)
        Jmp "loop" ]
  in
  { Workload.name = "mcf";
    description = "network-simplex arc scan with irregular node-potential gathers";
    program = assemble ~name:"mcf" code;
    reg_init =
      [ (arc, arcs_base); (arc_end, arcs_base + (arc_count * 16)); (base, nodes_base);
        buf_init ];
    mem_init = Mem_builder.image mb;
    max_instrs = instrs }
