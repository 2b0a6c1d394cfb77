(* Tests for the CRISP software stack: profiler, classifier, slicer,
   critical-path filter, tagger and the IBDA hardware baseline. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* A pointer chase with a register spill in the address chain and a hard
   branch, exercising every analysis feature:
     loop:  ld r1, 0(r1)       ; pc 0: delinquent chain load
            st r1, 0(r2)       ; pc 1: spill the pointer to the stack
            fmul r4, r5, r5    ; pc 2: clobber (payload)
            ld r3, 0(r2)       ; pc 3: reload through memory
            ld r6, 64(r3)      ; pc 4: value load (delinquent)
            beq r6-parity ...  ; pc 6: hard branch on loaded data
*)
let spill_chase_workload ?(nodes = 30_000) () =
  let rng = Prng.create 21 in
  let mem = Mem_image.create () in
  let order = Array.init nodes (fun i -> i) in
  Prng.shuffle rng order;
  (* nodes are two lines apart, with the value on the second line, so the
     chain load and the value load miss independently *)
  for i = 0 to nodes - 1 do
    let addr = 0x400000 + (order.(i) * 128) in
    Mem_image.set mem addr (0x400000 + (order.((i + 1) mod nodes) * 128));
    Mem_image.set mem (addr + 64) (Prng.int rng 100)
  done;
  let open Program in
  let insts =
    [ Label "loop";
      Ld (1, 1, 0);
      St (1, 2, 0);
      Fmul (4, 5, 5);
      Ld (3, 2, 0);
      Ld (6, 3, 64);
      Alu (Isa.And, 7, 6, Imm 1);
      Br (Isa.Eq, 7, Imm 0, "skip");
      Fadd (5, 5, 6);
      Label "skip";
      Jmp "loop" ]
  in
  let prog = assemble ~name:"spill_chase" insts in
  Executor.run ~reg_init:[ (1, 0x400000); (2, 1024); (5, 3) ] ~mem_init:mem
    ~max_instrs:40_000 prog

(* ---------------- Profiler ---------------- *)

let test_profiler_counts () =
  let trace = spill_chase_workload () in
  let r = Profiler.profile trace in
  check int "instruction count" (Executor.length trace) r.Profiler.total_instrs;
  check bool "loads counted" true (r.Profiler.total_loads > 0);
  check bool "branches counted" true (r.Profiler.total_branches > 0);
  (* pc 4 touches each node's line first, so it takes the misses; the
     chain load (pc 0) then hits the warmed line *)
  let value_load = Hashtbl.find r.Profiler.loads 4 in
  check bool "value load misses nearly always" true (Profiler.miss_ratio value_load > 0.8);
  check bool "value load is irregular" true (Profiler.stride_ratio value_load < 0.2);
  let reload = Hashtbl.find r.Profiler.loads 3 in
  check bool "stack reload always hits" true (Profiler.miss_ratio reload < 0.05)

let test_profiler_mlp_serial_vs_parallel () =
  (* serial chase: same-depth misses never coexist -> MLP ~ 1 *)
  let serial = Profiler.profile (spill_chase_workload ()) in
  let value_load = Hashtbl.find serial.Profiler.loads 4 in
  check bool "serial chain has MLP ~ 1" true (Profiler.avg_mlp value_load < 1.5);
  (* independent gathers: high MLP *)
  let rng = Prng.create 31 in
  let mem = Mem_image.create () in
  for i = 0 to (1 lsl 15) - 1 do
    Mem_image.set mem (0x500000 + (i * 8)) (Prng.int rng 100)
  done;
  let open Program in
  let gather k =
    [ Mul (1 + k, 1 + k, 9);
      Alu (Isa.Add, 1 + k, 1 + k, Imm (k + 77));
      Alu (Isa.And, 10, 1 + k, Imm 0x7FFF);
      Alu (Isa.Shl, 10, 10, Imm 3);
      Alu (Isa.Add, 10, 10, Imm 0x500000);
      Ld (11, 10, 0);
      Fadd (12, 12, 11) ]
  in
  let prog =
    assemble ~name:"mlp"
      ([ Label "loop" ] @ List.concat_map gather [ 0; 1; 2; 3 ] @ [ Jmp "loop" ])
  in
  let trace =
    Executor.run
      ~reg_init:((9, 29) :: List.init 4 (fun k -> (1 + k, 7 * (k + 1))))
      ~mem_init:mem ~max_instrs:40_000 prog
  in
  let parallel = Profiler.profile trace in
  let some_gather = Hashtbl.find parallel.Profiler.loads 5 in
  check bool "independent gathers show MLP > 2" true (Profiler.avg_mlp some_gather > 2.)

let test_branch_profiling () =
  let trace = spill_chase_workload () in
  let r = Profiler.profile trace in
  let b = Hashtbl.find r.Profiler.branch_table 6 in
  check bool "data-dependent branch mispredicts > 30%" true
    (Profiler.mispredict_ratio b > 0.3)

(* ---------------- Classifier ---------------- *)

let test_classifier_finds_delinquents () =
  let trace = spill_chase_workload () in
  let r = Profiler.profile trace in
  let c = Classifier.classify r Classifier.default in
  let pcs = List.map fst c.Classifier.delinquent_loads in
  check bool "missing value load flagged" true (List.mem 4 pcs);
  check bool "stack reload not flagged" false (List.mem 3 pcs);
  let branch_pcs = List.map fst c.Classifier.hard_branches in
  check bool "hard branch flagged" true (List.mem 6 branch_pcs)

(* A counted loop around a branch on random data taken about 5% of the
   time: the data branch mispredicts near 9% of the time, under the 15%
   hard-branch threshold, and the loop branch almost never.
     loop:  and/shl/add r2 <- &table[r1 & 4095]   ; pcs 0-2
            ld r3, 0(r2)                         ; pc 3
            blt r3, 5, skip                      ; pc 4: biased data branch
            add r4, r4, 1                        ; pc 5
     skip:  add r1, r1, 1                        ; pc 6
            blt r1, 1000000, loop                ; pc 7: loop branch
*)
let biased_branch_workload () =
  let rng = Prng.create 5 in
  let mem = Mem_image.create () in
  for i = 0 to 4095 do
    Mem_image.set mem (0x500000 + (i * 8)) (Prng.int rng 100)
  done;
  let open Program in
  let insts =
    [ Label "loop";
      Alu (Isa.And, 2, 1, Imm 4095);
      Alu (Isa.Shl, 2, 2, Imm 3);
      Alu (Isa.Add, 2, 2, Imm 0x500000);
      Ld (3, 2, 0);
      Br (Isa.Lt, 3, Imm 5, "skip");
      Alu (Isa.Add, 4, 4, Imm 1);
      Label "skip";
      Alu (Isa.Add, 1, 1, Imm 1);
      Br (Isa.Lt, 1, Imm 1_000_000, "loop");
      Halt ]
  in
  Executor.run ~mem_init:mem ~max_instrs:40_000 (assemble ~name:"biased" insts)

let test_classifier_thresholds () =
  let trace = spill_chase_workload () in
  let r = Profiler.profile trace in
  let strict = Classifier.classify r { Classifier.miss_contribution_min = 0.99 } in
  check int "an impossible threshold flags nothing" 0
    (List.length strict.Classifier.delinquent_loads);
  let r = Profiler.profile (biased_branch_workload ()) in
  let ratio pc = Profiler.mispredict_ratio (Hashtbl.find r.Profiler.branch_table pc) in
  check bool "data branch mispredicts, but under 15%" true
    (ratio 4 > 0.03 && ratio 4 < 0.15);
  check bool "loop branch well predicted" true (ratio 7 < 0.01);
  check (Alcotest.list int) "branch threshold respected" []
    (List.map fst (Classifier.classify r Classifier.default).Classifier.hard_branches)

let test_classifier_mlp_filter () =
  (* bwaves-like high-MLP gathers must be rejected by the MLP criterion *)
  let w = Catalog.make ~input:Workload.Train ~instrs:60_000 "bwaves" in
  let trace = Workload.trace w in
  let r = Profiler.profile trace in
  let c = Classifier.classify r Classifier.default in
  check int "high-MLP loads not delinquent" 0 (List.length c.Classifier.delinquent_loads)

let test_classifier_stride_filter () =
  let w = Catalog.make ~input:Workload.Train ~instrs:60_000 "fotonik" in
  let trace = Workload.trace w in
  let r = Profiler.profile trace in
  let c = Classifier.classify r Classifier.default in
  check int "prefetchable streams not delinquent" 0
    (List.length c.Classifier.delinquent_loads)

(* ---------------- Slicer ---------------- *)

let test_slicer_follows_memory () =
  let trace = spill_chase_workload () in
  let deps = Deps.compute trace in
  (* slice of the value load (pc 4): its base register comes from the
     reload (pc 3), which depends through MEMORY on the spill (pc 1),
     which depends on the chain load (pc 0) *)
  let with_mem = Slicer.extract trace deps ~root_pc:4 in
  check bool "reload in slice" true with_mem.Slicer.pcs.(3);
  check bool "spill store reached through memory" true with_mem.Slicer.pcs.(1);
  check bool "chain load reached" true with_mem.Slicer.pcs.(0);
  check bool "payload excluded" false with_mem.Slicer.pcs.(2);
  let without_mem = Slicer.extract ~follow_memory:false trace deps ~root_pc:4 in
  check bool "without memory deps the spill is invisible" false
    without_mem.Slicer.pcs.(1);
  check bool "and the chain load is lost" false without_mem.Slicer.pcs.(0)

let test_slicer_recursion_terminates () =
  let trace = spill_chase_workload () in
  let deps = Deps.compute trace in
  let slice = Slicer.extract trace deps ~root_pc:0 in
  (* the chain load depends only on itself across iterations *)
  check bool "self-recursive slice is just the root" true
    (slice.Slicer.pc_list = [ 0 ]);
  check bool "dynamic length matches" true (slice.Slicer.avg_dynamic_length <= 2.)

let test_slicer_branch_slice () =
  let trace = spill_chase_workload () in
  let deps = Deps.compute trace in
  let slice = Slicer.extract trace deps ~root_pc:6 in
  check bool "branch slice contains its condition chain" true
    (slice.Slicer.pcs.(5) && slice.Slicer.pcs.(4))

(* ---------------- Critical path ---------------- *)

let test_critical_path_filters_cheap_side_chains () =
  (* root load fed by an expensive load chain and a cheap constant chain:
     only the expensive side survives a high theta *)
  let mem = Mem_image.create () in
  Mem_image.set mem 0x600000 0x610000;
  let open Program in
  let insts =
    [ Ld (1, 9, 0);  (* pc 0: slow producer (DRAM) *)
      Li (2, 4);  (* pc 1: cheap producer *)
      Alu (Isa.Add, 2, 2, Imm 1);  (* pc 2: cheap chain *)
      Alu (Isa.Add, 3, 1, Reg 2);  (* pc 3: join *)
      Ld (4, 3, 0);  (* pc 4: root *)
      Halt ]
  in
  let prog = assemble ~name:"cp" insts in
  let trace = Executor.run ~reg_init:[ (9, 0x600000) ] ~mem_init:mem ~max_instrs:100 prog in
  let deps = Deps.compute trace in
  let latency_of i =
    match Executor.op trace i with
    | Isa.Load -> 150
    | op -> Isa.exec_latency op
  in
  let slice = Slicer.extract trace deps ~root_pc:4 in
  let keep = Critical_path.filter ~theta:0.8 ~latency_of slice in
  check bool "expensive producer kept" true keep.(0);
  check bool "join kept" true keep.(3);
  check bool "cheap chain dropped" false keep.(1);
  check bool "root always kept" true keep.(4);
  let dag = List.hd slice.Slicer.dags in
  check (Alcotest.list int) "one instance, walked in dynamic order" [ 0; 1; 2; 3; 4 ]
    (Array.to_list dag.Slicer.nodes);
  let lp = Critical_path.longest_path ~latency_of dag in
  check int "longest path = load + join + root" (150 + 1 + 150) lp

(* Loads weigh their AMAT under the hierarchy the report was profiled on.
   The root (pc 9, an L1-resident table load) joins a DRAM-missing
   pointer chase (pc 0) and a chain of four divisions fed by the loop
   counter (pcs 1-4 and 10).  Under Skylake the chase path weighs
   36 + 94 + 8 = 138 cycles and the division path 1 + 96 + 8 = 105, above
   0.6 of it; a 1000-cycle LLC lifts the chase path to 1102 and the
   division side falls below the cutoff. *)
let test_critical_path_weighs_profiled_hierarchy () =
  let rng = Prng.create 5 in
  let nodes = 16_384 in
  let mem = Mem_image.create () in
  let order = Array.init nodes (fun i -> i) in
  Prng.shuffle rng order;
  for i = 0 to nodes - 1 do
    Mem_image.set mem (0x400000 + (order.(i) * 128))
      (0x400000 + (order.((i + 1) mod nodes) * 128))
  done;
  let open Program in
  let insts =
    [ Label "loop";
      Ld (1, 1, 0);
      Div (5, 10, 11);
      Div (5, 5, 11);
      Div (5, 5, 11);
      Div (5, 5, 11);
      Alu (Isa.Xor, 6, 1, Reg 5);
      Alu (Isa.And, 6, 6, Imm 7);
      Alu (Isa.Shl, 6, 6, Imm 3);
      Alu (Isa.Add, 6, 6, Imm 0x8000);
      Ld (7, 6, 0);
      Alu (Isa.Add, 10, 10, Imm 1);
      Jmp "loop" ]
  in
  let trace =
    Executor.run ~reg_init:[ (1, 0x400000); (11, 3) ] ~mem_init:mem ~max_instrs:12_000
      (assemble ~name:"amat" insts)
  in
  let deps = Deps.compute trace in
  let kept mem_params =
    let report = Profiler.profile ~mem_params trace in
    let classification =
      { Classifier.delinquent_loads = [ (9, Hashtbl.find report.Profiler.loads 9) ];
        hard_branches = [];
        long_ops = [] }
    in
    (List.hd (Tagger.build trace deps report classification).Tagger.slices).Tagger.pcs
  in
  check (Alcotest.list int) "Skylake keeps the division side"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] (kept Memory_system.skylake);
  check (Alcotest.list int) "a slow LLC keeps only the chase side" [ 0; 5; 6; 7; 8; 9 ]
    (kept { Memory_system.skylake with Memory_system.llc_latency = 1000 })

(* Property, on random loop programs: the filter keeps a subset of the
   slice that holds the root, keeps all of it at theta 0, and keeps no
   more as theta rises. *)
let prop_filter_within_slice =
  QCheck.Test.make ~name:"filter is a root-holding subset, shrinking in theta"
    ~count:12 QCheck.small_int (fun seed ->
      let trace = Random_loop.trace seed in
      let deps = Deps.compute trace in
      let latency_of i =
        match Executor.op trace i with
        | Isa.Load -> [| 4; 36; 130 |].(Executor.pc trace i mod 3)
        | op -> Isa.exec_latency op
      in
      let subset a b = Array.for_all2 (fun x y -> (not x) || y) a b in
      List.for_all
        (fun root_pc ->
          List.for_all
            (fun follow_memory ->
              let slice = Slicer.extract ~follow_memory trace deps ~root_pc in
              let keeps =
                List.map
                  (fun theta -> Critical_path.filter ~theta ~latency_of slice)
                  [ 0.; 0.3; 0.6; 0.8; 1. ]
              in
              let fail what =
                QCheck.Test.fail_reportf "root %d (follow_memory=%b): %s" root_pc
                  follow_memory what
              in
              let rec shrinking = function
                | a :: (b :: _ as rest) -> subset b a && shrinking rest
                | _ -> true
              in
              if List.hd keeps <> slice.Slicer.pcs then fail "theta 0 is not the slice"
              else if not (List.for_all (fun k -> subset k slice.Slicer.pcs) keeps)
              then fail "kept a pc outside the slice"
              else if not (List.for_all (fun k -> k.(root_pc)) keeps) then
                fail "dropped the root"
              else if not (shrinking keeps) then fail "kept more at a higher theta"
              else true)
            [ true; false ])
        (Random_loop.roots trace))

(* ---------------- Tagger ---------------- *)

let test_tagger_end_to_end () =
  let trace = spill_chase_workload () in
  let deps = Deps.compute trace in
  let report = Profiler.profile trace in
  let classification = Classifier.classify report Classifier.default in
  let tagging = Tagger.build trace deps report classification in
  check bool "something tagged" true (tagging.Tagger.static_count > 0);
  check bool "ratio within the guardrail" true (tagging.Tagger.dynamic_ratio <= 0.40001);
  check bool "payload not tagged" false (Tagger.is_critical tagging 2)

let test_tagger_ratio_guardrail () =
  let trace = spill_chase_workload () in
  let deps = Deps.compute trace in
  let report = Profiler.profile trace in
  let classification = Classifier.classify report Classifier.default in
  let tight =
    Tagger.build ~options:{ Tagger.default_options with Tagger.ratio_max = 0.02 } trace
      deps report classification
  in
  check bool "tiny cap forces slice drops" true
    (List.exists (fun s -> s.Tagger.dropped) tight.Tagger.slices);
  check bool "ratio respected or only roots left" true
    (tight.Tagger.dynamic_ratio < 0.4)

let test_tagger_kind_selection () =
  let trace = spill_chase_workload () in
  let deps = Deps.compute trace in
  let report = Profiler.profile trace in
  let classification = Classifier.classify report Classifier.default in
  let loads_only =
    Tagger.build ~options:Tagger.load_slices_only trace deps report classification
  in
  check bool "no branch slices when disabled" true
    (List.for_all (fun s -> s.Tagger.kind = `Load) loads_only.Tagger.slices);
  let branches_only =
    Tagger.build ~options:Tagger.branch_slices_only trace deps report classification
  in
  check bool "no load slices when disabled" true
    (List.for_all (fun s -> s.Tagger.kind = `Branch) branches_only.Tagger.slices)

let prop_tagged_pcs_exist =
  QCheck.Test.make ~name:"tag map only covers program pcs" ~count:5 QCheck.unit
    (fun () ->
      let trace = spill_chase_workload ~nodes:500 () in
      let deps = Deps.compute trace in
      let report = Profiler.profile trace in
      let c = Classifier.classify report Classifier.default in
      let tagging = Tagger.build trace deps report c in
      Array.length tagging.Tagger.critical
      = Array.length trace.Executor.prog.Program.code)

(* A loop whose division (pc 0) is a quarter of the dynamic stream. *)
let division_loop () =
  let open Program in
  let insts =
    [ Label "loop"; Div (1, 1, 2); Fadd (3, 3, 1); Alu (Isa.Add, 4, 4, Imm 1);
      Br (Isa.Lt, 4, Imm 10_000, "loop"); Halt ]
  in
  let prog = assemble ~name:"div" insts in
  Executor.run ~reg_init:[ (1, 1_000_000); (2, 1) ] ~max_instrs:20_000 prog

(* Every setting left in [Classifier.thresholds] and [Tagger.options] is
   live: flipped from its default, it changes the tag map [Tagger.analyze]
   builds for at least one catalog app.  No catalog app divides, so the
   Section 6.1 switch is checked on a division loop instead. *)
let test_fdo_settings_live () =
  let traces =
    List.map
      (fun name ->
        (name, Workload.trace (Catalog.make ~input:Workload.Train ~instrs:6_000 name)))
      Catalog.names
  in
  let tags ?thresholds ?options trace =
    (Tagger.analyze ?thresholds ?options trace).Tagger.critical
  in
  let defaults = List.map (fun (name, trace) -> (name, tags trace)) traces in
  let moves what ?thresholds ?options () =
    check bool (what ^ " changes some tag map") true
      (List.exists
         (fun (name, trace) -> tags ?thresholds ?options trace <> List.assoc name defaults)
         traces)
  in
  let d = Tagger.default_options in
  moves "miss_contribution_min" ~thresholds:{ Classifier.miss_contribution_min = 0.05 } ();
  moves "use_load_slices" ~options:{ d with Tagger.use_load_slices = false } ();
  moves "use_branch_slices" ~options:{ d with Tagger.use_branch_slices = false } ();
  moves "critical_path_filter" ~options:{ d with Tagger.critical_path_filter = false } ();
  moves "follow_memory" ~options:{ d with Tagger.follow_memory = false } ();
  moves "ratio_max" ~options:{ d with Tagger.ratio_max = 1.0 } ();
  let divisions = division_loop () in
  check bool "use_long_op_slices changes the division loop's tag map" true
    (tags ~options:{ d with Tagger.use_long_op_slices = true } divisions <> tags divisions)

(* ---------------- IBDA ---------------- *)

let test_ibda_marks_chain () =
  let trace = spill_chase_workload () in
  let result = Ibda.analyze Ibda.ist_infinite trace in
  check bool "IBDA tags something" true (result.Ibda.tagged_dynamic > 0);
  check bool "static coverage recorded" true (result.Ibda.tagged_static > 0)

let test_ibda_misses_memory_deps () =
  (* the spill/reload pattern: IBDA can tag the reload (a register
     producer of the value load) but can never reach the spill store's
     data producer through memory.  Verify the chain load (pc 0) is only
     reachable as the DLT's own delinquent entry, not via slice insertion
     from the value load: with a DLT too small to hold it, pc 1 (the
     store) never gets tagged. *)
  let trace = spill_chase_workload () in
  let result = Ibda.analyze Ibda.ist_infinite trace in
  let store_tagged = ref false in
  for i = 0 to Executor.length trace - 1 do
    if Executor.pc trace i = 1 && Ibda.is_critical result i then store_tagged := true
  done;
  check bool "spill store invisible to register-only IBDA" false !store_tagged

let test_ibda_capacity_matters () =
  let w = Catalog.make ~input:Workload.Train ~instrs:60_000 "moses" in
  let trace = Workload.trace w in
  let tiny = { Ibda.ist_entries = 128; ist_assoc = 4 } in
  let small = Ibda.analyze tiny trace in
  let big = Ibda.analyze Ibda.ist_infinite trace in
  check bool "small IST evicts" true (small.Ibda.ist_evictions > 0);
  check bool "unbounded IST never evicts" true (big.Ibda.ist_evictions = 0);
  check bool "unbounded IST covers at least as many static pcs" true
    (big.Ibda.tagged_static >= small.Ibda.tagged_static)

(* ---------------- Section 6.1 extension ---------------- *)

let test_long_op_classification () =
  let trace = division_loop () in
  let r = Profiler.profile trace in
  check bool "divisions counted" true (Hashtbl.mem r.Profiler.long_ops 0);
  let c = Classifier.classify r Classifier.default in
  check bool "division pc flagged" true (List.mem_assoc 0 c.Classifier.long_ops);
  let deps = Deps.compute trace in
  let off = Tagger.build trace deps r c in
  check bool "extension off by default" false (Tagger.is_critical off 0);
  let tagging =
    Tagger.build
      ~options:{ Tagger.default_options with Tagger.use_long_op_slices = true } trace
      deps r c
  in
  check bool "division tagged" true (Tagger.is_critical tagging 0)

let test_division_experiment_gains () =
  let sizes = { Experiments.eval_instrs = 40_000; train_instrs = 30_000 } in
  let ooo, crisp = Experiments.division { Experiments.default with sizes } in
  check bool "long-op prioritisation helps the division chain" true (crisp > ooo *. 1.05)

let () =
  Alcotest.run "analysis"
    [ ( "profiler",
        [ Alcotest.test_case "per-pc counters" `Quick test_profiler_counts;
          Alcotest.test_case "dependence-aware MLP" `Quick
            test_profiler_mlp_serial_vs_parallel;
          Alcotest.test_case "branch profiling" `Quick test_branch_profiling ] );
      ( "classifier",
        [ Alcotest.test_case "finds delinquent loads" `Quick
            test_classifier_finds_delinquents;
          Alcotest.test_case "threshold knobs" `Quick test_classifier_thresholds;
          Alcotest.test_case "MLP filter (bwaves)" `Quick test_classifier_mlp_filter;
          Alcotest.test_case "stride filter (fotonik)" `Quick
            test_classifier_stride_filter ] );
      ( "slicer",
        [ Alcotest.test_case "dependencies through memory" `Quick
            test_slicer_follows_memory;
          Alcotest.test_case "recursive termination" `Quick
            test_slicer_recursion_terminates;
          Alcotest.test_case "branch slices" `Quick test_slicer_branch_slice ] );
      ( "critical path",
        [ Alcotest.test_case "filters cheap side chains" `Quick
            test_critical_path_filters_cheap_side_chains;
          Alcotest.test_case "weighs loads on the profiled hierarchy" `Quick
            test_critical_path_weighs_profiled_hierarchy;
          QCheck_alcotest.to_alcotest prop_filter_within_slice ] );
      ( "tagger",
        [ Alcotest.test_case "end to end" `Quick test_tagger_end_to_end;
          Alcotest.test_case "ratio guardrail" `Quick test_tagger_ratio_guardrail;
          Alcotest.test_case "slice-kind selection" `Quick test_tagger_kind_selection;
          Alcotest.test_case "every FDO setting is live" `Quick test_fdo_settings_live;
          QCheck_alcotest.to_alcotest prop_tagged_pcs_exist ] );
      ( "ibda",
        [ Alcotest.test_case "marks slices online" `Quick test_ibda_marks_chain;
          Alcotest.test_case "blind to memory deps" `Quick test_ibda_misses_memory_deps;
          Alcotest.test_case "IST capacity" `Quick test_ibda_capacity_matters ] );
      ( "section 6.1",
        [ Alcotest.test_case "long-op classification" `Quick test_long_op_classification;
          Alcotest.test_case "division experiment" `Slow test_division_experiment_gains ] ) ]
