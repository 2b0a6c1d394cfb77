(* Define a brand-new workload in the assembler DSL and push it through the
   whole CRISP pipeline — the path a user takes to study their own kernel.

     dune exec examples/custom_workload.exe

   The kernel walks a skip-list-like index: a hot fingertable (cached)
   selects a bucket, the bucket walk is a two-hop pointer chase over a
   multi-MiB arena (delinquent), and a checksum burst consumes the result. *)

let build_workload ~input ~instrs =
  let rng = Prng.create (Workload.seed_of input) in
  let scale = Workload.scale_of input in
  let mb = Mem_builder.create () in
  (* hot finger table: 256 entries, cache-resident *)
  let arena_count = int_of_float (100_000. *. scale) in
  let arena = Mem_builder.alloc mb ~bytes:(arena_count * 64) in
  let fingers =
    Mem_builder.int_array mb
      (Array.init 256 (fun _ -> arena + (Prng.int rng arena_count * 64)))
  in
  for i = 0 to arena_count - 1 do
    Mem_builder.write mb ~addr:(arena + (i * 64)) (arena + (Prng.int rng arena_count * 64));
    Mem_builder.write mb ~addr:(arena + (i * 64) + 8) (Prng.int rng 1000)
  done;
  let buf, buf_init = Kernel_util.scratch_buffer mb in
  let key = 1 and t = 2 and node = 3 and v = 4 and acc = 5 and fb = 6 in
  let open Program in
  let code =
    [ Label "lookup";
      (* evolve the key and pick a finger (cached load) *)
      Mul (key, key, t);
      Alu (Isa.Xor, key, key, Imm 0x9e37);
      Alu (Isa.And, t, key, Imm 255);
      Alu (Isa.Shl, t, t, Imm 3);
      Alu (Isa.Add, t, t, Reg fb);
      Ld (node, t, 0);  (* finger: hits *)
      Ld (node, node, 0);  (* hop 1: delinquent *)
      Ld (v, node, 8) ]  (* hop 2 value: delinquent *)
    @ Kernel_util.payload ~tag:"checksum" ~dep:v ~buf ~loads:8 ~fp_ops:24 ~stores:10 ()
    @ [ Alu (Isa.Add, acc, acc, Reg v);
        Li (t, 31);
        Jmp "lookup" ]
  in
  { Workload.name = "skiplist";
    description = "custom example: finger table + two-hop arena walk";
    program = assemble ~name:"skiplist" code;
    reg_init = [ (key, 12345); (t, 31); (fb, fingers); buf_init ];
    mem_init = Mem_builder.image mb;
    max_instrs = instrs }

let () =
  print_endline "Custom workload: skip-list lookup";
  let train = Workload.trace (build_workload ~input:Workload.Train ~instrs:60_000) in
  let tagging = Tagger.analyze train in
  Printf.printf "delinquent loads found: %s\n"
    (String.concat ", "
       (List.filter_map
          (fun (s : Tagger.slice_info) ->
            if s.Tagger.kind = `Load then Some (string_of_int s.Tagger.root_pc) else None)
          tagging.Tagger.slices));
  List.iter
    (fun (s : Tagger.slice_info) ->
      Printf.printf "slice root pc %d (%s): %d static instructions%s\n"
        s.Tagger.root_pc
        (match s.Tagger.kind with
         | `Load -> "load"
         | `Branch -> "branch"
         | `Long_op -> "long-op")
        s.Tagger.static_size
        (if s.Tagger.dropped then " [dropped by guardrail]" else ""))
    tagging.Tagger.slices;
  let eval_trace = Workload.trace (build_workload ~input:Workload.Ref ~instrs:80_000) in
  let ooo =
    Cpu_core.run
      (Cpu_config.with_policy Scheduler.Oldest_ready Cpu_config.skylake)
      eval_trace
  in
  let crisp =
    Cpu_core.run
      ~criticality:(Cpu_core.Static_tags (Tagger.is_critical tagging))
      (Cpu_config.with_policy Scheduler.Crisp Cpu_config.skylake)
      eval_trace
  in
  Printf.printf "OOO IPC %.3f, CRISP IPC %.3f (%+.1f%%)\n" (Cpu_stats.ipc ooo)
    (Cpu_stats.ipc crisp)
    (100. *. ((Cpu_stats.ipc crisp /. Cpu_stats.ipc ooo) -. 1.))
