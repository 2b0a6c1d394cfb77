(* Random loop programs shared by the slicer and critical-path
   properties: a loop of blocks mixing gathers, stores, arithmetic and
   data-dependent branches, traced for 6,000 instructions.  [trace seed]
   is deterministic in [seed]; [setup seed] is the program, initial
   registers and memory image it runs.  Register 10 counts loop
   iterations up to 1,000,000, then the program halts. *)

let setup seed =
  let rng = Prng.create (1000 + seed) in
  let words = 512 in
  let base = 0x20000 in
  let mem = Mem_image.create () in
  for i = 0 to words - 1 do
    Mem_image.set mem (base + (i * 8)) (Prng.int rng 1_000_000)
  done;
  let reg () = 1 + Prng.int rng 8 in
  let alu_kinds = [| Isa.Add; Isa.Sub; Isa.Xor; Isa.And; Isa.Or; Isa.Shr |] in
  let open Program in
  let block b =
    let body =
      List.concat
        (List.init
           (2 + Prng.int rng 4)
           (fun _ ->
             match Prng.int rng 5 with
             | 0 ->
               (* random gather: mask into the image, then load *)
               [ Alu (Isa.And, 9, reg (), Imm (words - 1));
                 Alu (Isa.Shl, 9, 9, Imm 3);
                 Alu (Isa.Add, 9, 9, Imm base);
                 Ld (reg (), 9, 0) ]
             | 1 ->
               [ Alu (Isa.And, 9, reg (), Imm (words - 1));
                 Alu (Isa.Shl, 9, 9, Imm 3);
                 Alu (Isa.Add, 9, 9, Imm base);
                 St (reg (), 9, 0) ]
             | 2 -> [ Mul (reg (), reg (), reg ()) ]
             | 3 -> [ Fadd (reg (), reg (), reg ()) ]
             | _ ->
               [ Alu
                   ( alu_kinds.(Prng.int rng (Array.length alu_kinds)),
                     reg (), reg (),
                     if Prng.int rng 2 = 0 then Reg (reg ())
                     else Imm (Prng.int rng 64) ) ]))
    in
    let skip = Printf.sprintf "skip%d" b in
    body
    @ [ Br ((if Prng.int rng 2 = 0 then Isa.Lt else Isa.Ge), reg (), Imm (Prng.int rng 128), skip);
        Alu (Isa.Xor, reg (), reg (), Imm b);
        Label skip ]
  in
  let blocks = 2 + Prng.int rng 3 in
  let code =
    [ Label "loop" ]
    @ List.concat (List.init blocks block)
    @ [ Alu (Isa.Add, 10, 10, Imm 1); Br (Isa.Lt, 10, Imm 1_000_000, "loop"); Halt ]
  in
  let reg_init = List.init 10 (fun r -> (r + 1, Prng.int rng 1_000)) in
  (assemble ~name:(Printf.sprintf "random%d" seed) code, reg_init, mem)

let trace seed =
  let prog, reg_init, mem = setup seed in
  Executor.run ~reg_init ~mem_init:mem ~max_instrs:6_000 prog

(* Static pcs of the loads and branches the trace executed: the slice
   roots the properties try. *)
let roots (trace : Executor.t) =
  let seen = Hashtbl.create 16 in
  for i = 0 to Executor.length trace - 1 do
    match Executor.op trace i with
    | Isa.Load | Isa.Branch _ -> Hashtbl.replace seen (Executor.pc trace i) ()
    | _ -> ()
  done;
  Hashtbl.fold (fun pc () acc -> pc :: acc) seen []
