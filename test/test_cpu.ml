(* Pipeline-level tests of the cycle model: throughput limits, latency
   exposure, branch penalties, forwarding and criticality scheduling. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let cfg = Cpu_config.skylake

let no_prefetch_cfg =
  { cfg with
    Cpu_config.mem =
      { cfg.Cpu_config.mem with Memory_system.enable_bop = false; enable_stream = false } }

let run_insts ?config ?criticality ?(regs = []) ?mem insts =
  let prog = Program.assemble ~name:"t" insts in
  let trace = Executor.run ~reg_init:regs ?mem_init:mem ~max_instrs:200_000 prog in
  let config = Option.value ~default:cfg config in
  (Cpu_core.run ?criticality config trace, trace)

let ipc stats = Cpu_stats.ipc stats

let counted_loop ~iters body =
  let open Program in
  [ Li (31, 0); Label "loop" ] @ body
  @ [ Alu (Isa.Add, 31, 31, Imm 1); Br (Isa.Lt, 31, Imm iters, "loop"); Halt ]

let test_all_retire () =
  let open Program in
  let stats, trace = run_insts (counted_loop ~iters:500 [ Nop; Nop; Nop ]) in
  check int "every micro-op retires" (Executor.length trace)
    stats.Cpu_stats.retired

let test_independent_alu_throughput () =
  let open Program in
  (* 12 independent single-cycle ops per iteration: bound by 4 ALU ports
     (the loop's add+branch also take ALU slots) *)
  let body = List.init 12 (fun i -> Alu (Isa.Add, 1 + (i mod 8), 9, Imm i)) in
  let stats, _ = run_insts ~regs:[ (9, 1) ] (counted_loop ~iters:800 body) in
  check bool "ALU-bound IPC between 3 and 4" true (ipc stats > 3.0 && ipc stats <= 4.01)

let test_dependent_chain_serializes () =
  let open Program in
  let body = List.init 8 (fun _ -> Alu (Isa.Add, 1, 1, Imm 1)) in
  let stats, _ = run_insts (counted_loop ~iters:500 body) in
  (* 8 chained adds at 1 cycle each + loop overhead: IPC close to 1 *)
  check bool "serial chain IPC near 1" true (ipc stats > 0.8 && ipc stats < 1.6)

let test_divide_latency_exposed () =
  let open Program in
  let body = [ Div (1, 1, 9) ] in
  let stats, _ = run_insts ~regs:[ (1, 1000000); (9, 1) ] (counted_loop ~iters:200 body) in
  (* each iteration carries a 24-cycle divide on the critical path *)
  check bool "divide-bound IPC below 0.25" true (ipc stats < 0.25);
  check bool "long-op stalls attributed" true
    (stats.Cpu_stats.head_stalls.Cpu_stats.long_op > 1000)

let test_cache_hit_loads_fast () =
  let open Program in
  (* repeated loads from one hot line: L1-resident after warmup *)
  let body = [ Ld (1, 9, 0); Ld (2, 9, 8); Fadd (3, 1, 2) ] in
  let stats, _ = run_insts ~regs:[ (9, 4096) ] (counted_loop ~iters:1000 body) in
  check bool "cache-resident loop runs fast" true (ipc stats > 2.0)

let test_dram_miss_stalls () =
  let open Program in
  (* pointer chase over a large random list: every iteration misses DRAM *)
  let rng = Prng.create 5 in
  let mem = Mem_image.create () in
  let nodes = 4000 in
  let order = Array.init nodes (fun i -> i) in
  Prng.shuffle rng order;
  for i = 0 to nodes - 1 do
    Mem_image.set mem (0x100000 + (order.(i) * 64))
      (0x100000 + (order.((i + 1) mod nodes) * 64))
  done;
  let body = [ Ld (9, 9, 0) ] in
  let stats, _ =
    run_insts ~config:no_prefetch_cfg ~regs:[ (9, 0x100000) ]
      ~mem (counted_loop ~iters:2000 body)
  in
  check bool "serial DRAM chase IPC below 0.1" true (ipc stats < 0.1);
  check bool "stalls attributed to DRAM loads" true
    (stats.Cpu_stats.head_stalls.Cpu_stats.dram_load
    > stats.Cpu_stats.cycles / 2)

let test_branch_mispredicts_cost () =
  let open Program in
  (* data-dependent branch on pseudo-random values vs an always-taken one *)
  let mem = Mem_image.create () in
  let rng = Prng.create 11 in
  for i = 0 to 4095 do
    Mem_image.set mem (8192 + (i * 8)) (Prng.int rng 2)
  done;
  let body which =
    [ Alu (Isa.And, 1, 31, Imm 4095);
      Alu (Isa.Shl, 1, 1, Imm 3);
      Alu (Isa.Add, 1, 1, Imm 8192);
      Ld (2, 1, 0) ]
    @ (match which with
      | `Random -> [ Br (Isa.Eq, 2, Imm 0, "skip") ]
      | `Biased -> [ Br (Isa.Ge, 2, Imm 0, "skip") ])
    @ [ Alu (Isa.Add, 3, 3, Imm 1); Label "skip" ]
  in
  let random_stats, _ = run_insts ~mem (counted_loop ~iters:3000 (body `Random)) in
  let biased_stats, _ = run_insts ~mem (counted_loop ~iters:3000 (body `Biased)) in
  check bool "random branch mispredicts a lot" true
    (Cpu_stats.mispredicts_per_ki random_stats > 20.);
  check bool "biased branch predicts well" true
    (Cpu_stats.mispredicts_per_ki biased_stats < 5.);
  check bool "mispredictions cost throughput" true
    (ipc biased_stats > ipc random_stats *. 1.2)

let test_store_load_forwarding () =
  let open Program in
  (* store then immediately load the same address: forwarding keeps the
     chain at L1-like latency instead of waiting for retirement *)
  let body = [ Alu (Isa.Add, 1, 1, Imm 1); St (1, 9, 0); Ld (1, 9, 0) ] in
  let stats, _ = run_insts ~regs:[ (9, 65536) ] (counted_loop ~iters:1000 body) in
  check bool "forwarded chain sustains reasonable IPC" true (ipc stats > 0.5)

let test_criticality_changes_schedule () =
  let open Program in
  (* a serial chase whose resolution wakes a store burst along with the
     next chain load: tagging the chain load must help *)
  let rng = Prng.create 7 in
  let mem = Mem_image.create () in
  let nodes = 2000 in
  let order = Array.init nodes (fun i -> i) in
  Prng.shuffle rng order;
  for i = 0 to nodes - 1 do
    Mem_image.set mem (0x200000 + (order.(i) * 64))
      (0x200000 + (order.((i + 1) mod nodes) * 64))
  done;
  let burst =
    List.init 12 (fun k -> Fmul (10 + (k mod 8), 9, 9))
    @ List.init 12 (fun k -> St (10 + (k mod 8), 8, k * 8))
  in
  let insts =
    [ Label "loop"; Ld (9, 9, 0) ] @ burst @ [ Jmp "loop" ]
  in
  let prog = Program.assemble ~name:"chase" insts in
  let trace =
    Executor.run ~reg_init:[ (9, 0x200000); (8, 4096) ] ~mem_init:mem
      ~max_instrs:60_000 prog
  in
  let ooo =
    Cpu_core.run (Cpu_config.with_policy Scheduler.Oldest_ready no_prefetch_cfg) trace
  in
  let crisp =
    Cpu_core.run
      ~criticality:(Cpu_core.Static_tags (fun pc -> pc = 0))
      (Cpu_config.with_policy Scheduler.Crisp no_prefetch_cfg)
      trace
  in
  check bool "critical-first beats oldest-first on the chase" true
    (Cpu_stats.ipc crisp > Cpu_stats.ipc ooo *. 1.02)

let test_dynamic_tags () =
  let open Program in
  let stats, trace =
    run_insts
      ~criticality:(Cpu_core.Dynamic_tags (fun i -> i mod 2 = 0))
      (counted_loop ~iters:300 [ Nop ])
  in
  check int "every op retires with dynamic tags" (Executor.length trace)
    stats.Cpu_stats.retired;
  check bool "half the stream counted critical" true
    (abs (stats.Cpu_stats.critical_retired - (stats.Cpu_stats.retired / 2)) < 5)

let test_window_scaling_helps () =
  let open Program in
  (* independent misses: a bigger window exposes more MLP *)
  let rng = Prng.create 13 in
  let mem = Mem_image.create () in
  for i = 0 to (1 lsl 15) - 1 do
    Mem_image.set mem (0x300000 + (i * 8)) (Prng.int rng 1000)
  done;
  let body =
    [ Mul (1, 1, 9);
      Alu (Isa.Add, 1, 1, Imm 12345);
      Alu (Isa.And, 2, 1, Imm 0x7FFF);
      Alu (Isa.Shl, 2, 2, Imm 3);
      Alu (Isa.Add, 2, 2, Imm 0x300000);
      Ld (3, 2, 0);
      Fadd (4, 4, 3) ]
  in
  let insts = counted_loop ~iters:3000 body in
  let prog = Program.assemble ~name:"mlp" insts in
  let trace = Executor.run ~reg_init:[ (1, 7); (9, 29) ] ~mem_init:mem ~max_instrs:100_000 prog in
  let small =
    Cpu_core.run (Cpu_config.with_window ~rs:32 ~rob:64 no_prefetch_cfg) trace
  in
  let large =
    Cpu_core.run (Cpu_config.with_window ~rs:192 ~rob:448 no_prefetch_cfg) trace
  in
  check bool "larger window exposes more MLP" true
    (Cpu_stats.ipc large > Cpu_stats.ipc small *. 1.3)

let () =
  Alcotest.run "cpu"
    [ ( "pipeline",
        [ Alcotest.test_case "all instructions retire" `Quick test_all_retire;
          Alcotest.test_case "ALU throughput bound" `Quick test_independent_alu_throughput;
          Alcotest.test_case "dependent chain serialises" `Quick
            test_dependent_chain_serializes;
          Alcotest.test_case "divide latency exposed" `Quick test_divide_latency_exposed;
          Alcotest.test_case "cache-resident loads" `Quick test_cache_hit_loads_fast;
          Alcotest.test_case "DRAM chase stalls" `Slow test_dram_miss_stalls;
          Alcotest.test_case "mispredict cost" `Slow test_branch_mispredicts_cost;
          Alcotest.test_case "store-to-load forwarding" `Quick test_store_load_forwarding;
          Alcotest.test_case "criticality changes the schedule" `Slow
            test_criticality_changes_schedule;
          Alcotest.test_case "dynamic tags" `Quick test_dynamic_tags;
          Alcotest.test_case "window scaling exposes MLP" `Slow test_window_scaling_helps ] ) ]
