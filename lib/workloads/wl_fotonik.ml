(* fotonik3d proxy: FDTD field update — pure unit-stride streaming over
   several multi-MiB arrays.  BOP and the stream prefetcher cover nearly
   every access, so CRISP's classifier finds no delinquent loads (the
   stride filter rejects them) and performance matches the baseline. *)

let make ?(input = Workload.Ref) ?(instrs = 240_000) () =
  let scale = Workload.scale_of input in
  let mb = Mem_builder.create () in
  let count = int_of_float (200_000. *. scale) in
  let ex = Mem_builder.alloc mb ~bytes:(count * 8) in
  let hy = Mem_builder.alloc mb ~bytes:(count * 8) in
  let hz = Mem_builder.alloc mb ~bytes:(count * 8) in
  for i = 0 to count - 1 do
    Mem_builder.write mb ~addr:(ex + (i * 8)) (i + 1);
    Mem_builder.write mb ~addr:(hy + (i * 8)) ((i * 2) + 1);
    Mem_builder.write mb ~addr:(hz + (i * 8)) ((i * 3) + 1)
  done;
  let i = 1 and off = 2 and a = 3 and b = 4 and c = 5 and t = 6 in
  let exb = 7 and hyb = 8 and hzb = 9 and limit = 10 in
  let open Program in
  let code =
    [ Label "loop";
      Alu (Isa.Shl, off, i, Imm 3);
      Alu (Isa.Add, t, exb, Reg off);
      Ld (a, t, 0);
      Alu (Isa.Add, t, hyb, Reg off);
      Ld (b, t, 0);
      Alu (Isa.Add, t, hzb, Reg off);
      Ld (c, t, 0);
      Fmul (b, b, c);
      Fadd (a, a, b);
      Alu (Isa.Add, t, exb, Reg off);
      St (a, t, 0);
      Alu (Isa.Add, i, i, Imm 1);
      Br (Isa.Lt, i, Reg limit, "loop");
      Li (i, 0);
      Jmp "loop" ]
  in
  { Workload.name = "fotonik";
    description = "FDTD field update: unit-stride streaming, prefetcher-covered";
    program = assemble ~name:"fotonik" code;
    reg_init = [ (i, 0); (exb, ex); (hyb, hy); (hzb, hz); (limit, count) ];
    mem_init = Mem_builder.image mb;
    max_instrs = instrs }
