(* Tests for the crisp_check validation layer: the program lint, the
   independent slice/tag-budget verifier, and the pipeline scoreboard. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let has_rule rule diags = List.exists (fun d -> d.Lint.rule = rule) diags
let diag_strings diags = String.concat "; " (List.map (Format.asprintf "%a" Lint.pp_diag) diags)

(* ---------------- Lint: clean programs stay clean ---------------- *)

let clean_program () =
  let open Program in
  assemble ~name:"clean"
    [ Label "loop";
      Ld (2, 1, 0);
      Alu (Isa.Add, 3, 2, Imm 1);
      St (3, 1, 8);
      Alu (Isa.Add, 1, 1, Imm 16);
      Br (Isa.Lt, 1, Imm 0x10200, "loop");
      Halt ]

let test_lint_clean () =
  let mem = Mem_image.create () in
  for i = 0 to 127 do
    Mem_image.set mem (0x10000 + (i * 8)) i
  done;
  let diags =
    match Lint.bounds_of_image mem with
    | Some bounds -> Lint.check_program ~initialised:[ 1 ] ~bounds (clean_program ())
    | None -> Alcotest.fail "image should have bounds"
  in
  check int (Printf.sprintf "no diagnostics (%s)" (diag_strings diags)) 0
    (List.length diags)

let test_lint_catalog_clean () =
  (* Every catalog workload lints down to exactly its pinned
     expected-findings ledger entry (empty for most), both at a tiny
     budget and at 60k instructions.  Both directions are regressions:
     a new finding means a kernel or analysis bug, a pinned finding that
     stops firing means the analysis lost power. *)
  List.iter
    (fun instrs ->
      List.iter
        (fun name ->
          let w = Catalog.make ~instrs name in
          let diags = Lint.check_workload w in
          let got = List.map (fun d -> (d.Lint.pc, d.Lint.rule)) diags in
          let expected =
            Option.value
              (List.assoc_opt name Check_runner.expected_findings)
              ~default:[]
          in
          check bool
            (Printf.sprintf "%s at %d instrs lints to its pinned findings (%s)"
               name instrs (diag_strings diags))
            true
            (List.sort compare got = List.sort compare expected))
        Catalog.names)
    [ 1_000; 60_000 ]

let test_lint_catalog_ledger_pinned () =
  (* The ledger itself is part of the contract: exactly these two
     findings. *)
  check bool "ledger pins gcc pc 53 dataflow-unreachable and xhpcg pc 72 dead-store"
    true
    (Check_runner.expected_findings
    = [ ("gcc", [ (53, Lint.Dataflow_unreachable) ]);
        ("xhpcg", [ (72, Lint.Dead_store) ]) ])

(* ---------------- Lint: every rule fires on a broken fixture -------- *)

(* Target fields outside the program cannot be produced by the assembler
   (labels always resolve); build the decoded form directly, as a
   hand-patched binary would look. *)
let raw code = { Program.name = "raw"; code = Array.of_list code; labels = [] }

let decoded ?(dst = -1) ?(src1 = -1) ?(src2 = -1) ?(imm = 0) ?(target = -1) op =
  { Program.op; dst; src1; src2; imm; target }

let test_lint_bad_target () =
  let prog =
    raw [ decoded ~target:7 Isa.Jump; decoded Isa.Halt ]
  in
  let diags = Lint.check_program prog in
  check bool "bad-target fires" true (has_rule Lint.Bad_target diags);
  check bool "bad-target is an error" true (Lint.errors diags <> [])

let test_lint_bad_register () =
  let prog = raw [ decoded ~dst:99 ~src1:0 ~src2:0 (Isa.Alu Isa.Add); decoded Isa.Halt ] in
  check bool "bad-register fires" true
    (has_rule Lint.Bad_register (Lint.check_program prog))

let test_lint_target_exits () =
  (* A label on the final instruction boundary: branching there ends
     execution.  Legal, but worth a warning. *)
  let open Program in
  let prog =
    assemble ~name:"exits" [ Br (Isa.Eq, 1, Imm 0, "out"); Nop; Label "out" ]
  in
  let diags = Lint.check_program ~initialised:[ 1 ] prog in
  check bool "target-exits fires" true (has_rule Lint.Target_exits diags);
  check bool "only a warning" true (Lint.errors diags = [])

let test_lint_undefined_use () =
  let open Program in
  (* r5 is read before anything defines it, and r5 also has a later
     producer — a plain undefined use, not a self-dependency. *)
  let prog =
    assemble ~name:"undef"
      [ Alu (Isa.Add, 2, 5, Imm 1); Li (5, 3); Alu (Isa.Add, 2, 5, Imm 1); Halt ]
  in
  let diags = Lint.check_program prog in
  check bool "undefined-use fires" true (has_rule Lint.Undefined_use diags);
  (* r2's unread writes are (correct) dead-store findings, so only the
     undefined-use rule must fall silent. *)
  check bool "declaring the register silences it" true
    (not (has_rule Lint.Undefined_use (Lint.check_program ~initialised:[ 5 ] prog)))

let test_lint_self_dependency () =
  let open Program in
  (* An undeclared counter: r7's only producer is the instruction reading
     it.  Must be an error until reg_init declares it. *)
  let prog =
    assemble ~name:"selfdep"
      [ Label "loop";
        Alu (Isa.Add, 7, 7, Imm 1);
        Br (Isa.Lt, 7, Imm 10, "loop");
        Halt ]
  in
  let diags = Lint.check_program prog in
  check bool "self-dependency fires" true (has_rule Lint.Self_dependency diags);
  check bool "it is an error" true (Lint.errors diags <> []);
  check bool "declaring the register silences it" true
    (Lint.check_program ~initialised:[ 7 ] prog = [])

let test_lint_unreachable () =
  let open Program in
  let prog =
    assemble ~name:"dead"
      [ Jmp "end"; Label "orphan"; Alu (Isa.Add, 1, 1, Imm 1); Ret; Label "end"; Halt ]
  in
  let diags = Lint.check_program ~initialised:[ 1 ] prog in
  check bool "unreachable fires" true (has_rule Lint.Unreachable diags)

let test_lint_addresses () =
  let open Program in
  let mem = Mem_image.create () in
  for i = 0 to 63 do
    Mem_image.set mem (0x8000 + (i * 8)) i
  done;
  let bounds = Option.get (Lint.bounds_of_image mem) in
  let negative =
    assemble ~name:"neg" [ Li (1, 16); Ld (2, 1, -4096); Halt ]
  in
  let diags = Lint.check_program ~bounds negative in
  check bool "negative-address fires" true (has_rule Lint.Negative_address diags);
  check bool "negative address is an error" true (Lint.errors diags <> []);
  let oob = assemble ~name:"oob" [ Li (1, 0x100000); Ld (2, 1, 0); Halt ] in
  check bool "out-of-bounds load fires" true
    (has_rule Lint.Oob_address (Lint.check_program ~bounds oob));
  (* A store past the image is an output buffer, not a bug. *)
  let store = assemble ~name:"store" [ Li (1, 0x100000); Li (2, 7); St (2, 1, 0); Halt ] in
  check bool "store past the image is fine" true
    (not (has_rule Lint.Oob_address (Lint.check_program ~bounds store)))

let test_lint_degenerate_branch () =
  let open Program in
  let prog =
    assemble ~name:"degen"
      [ Li (1, 0); Br (Isa.Eq, 1, Imm 0, "next"); Label "next"; Halt ]
  in
  check bool "degenerate-branch fires" true
    (has_rule Lint.Degenerate_branch (Lint.check_program prog))

(* ---------------- Lint v2: dataflow-powered rules ---------------- *)

let test_lint_dead_store () =
  let open Program in
  (* r1's first value is overwritten before any read. *)
  let dead =
    assemble ~name:"dead-store"
      [ Li (1, 5); Li (1, 7); Alu (Isa.Add, 2, 1, Imm 0); Halt ]
  in
  let diags = Lint.check_program dead in
  check bool
    (Printf.sprintf "dead-store fires (%s)" (diag_strings diags))
    true (has_rule Lint.Dead_store diags);
  (* Loads and long-latency ops are exempt even when unread: payload
     kernels write unread temps on purpose, for port pressure. *)
  let exempt =
    assemble ~name:"exempt"
      [ Li (1, 0x8000); Ld (2, 1, 0); Fmul (3, 4, 4); Halt ]
  in
  check bool "unread load/fp results are not dead stores" true
    (not (has_rule Lint.Dead_store (Lint.check_program ~initialised:[ 4 ] exempt)))

let test_lint_dataflow_unreachable () =
  let open Program in
  (* r1 is the constant 0, so the Eq branch always takes and the
     fall-through instruction is dataflow-dead despite being
     CFG-reachable. *)
  let prog =
    assemble ~name:"df-dead"
      [ Li (1, 0);
        Br (Isa.Eq, 1, Imm 0, "end");
        Alu (Isa.Add, 1, 1, Imm 1);
        Label "end";
        Halt ]
  in
  let diags = Lint.check_program prog in
  check bool
    (Printf.sprintf "dataflow-unreachable fires (%s)" (diag_strings diags))
    true
    (List.exists
       (fun d -> d.Lint.rule = Lint.Dataflow_unreachable && d.Lint.pc = 2)
       diags)

let test_lint_invariant_address () =
  let open Program in
  (* The address r3 = r1 + 64 is recomputed every iteration from the
     loop-invariant r1 and feeds the load: hoistable. *)
  let prog =
    assemble ~name:"inv-addr"
      [ Label "loop";
        Alu (Isa.Add, 3, 1, Imm 64);
        Ld (4, 3, 0);
        Alu (Isa.Add, 5, 5, Reg 4);
        Alu (Isa.Add, 2, 2, Imm 1);
        Br (Isa.Lt, 2, Imm 100, "loop");
        Halt ]
  in
  let diags = Lint.check_program ~initialised:[ 1; 2; 5 ] prog in
  check bool
    (Printf.sprintf "loop-invariant-address fires (%s)" (diag_strings diags))
    true (has_rule Lint.Invariant_address diags);
  (* Re-basing the address on the loop counter makes it variant. *)
  let variant =
    assemble ~name:"var-addr"
      [ Label "loop";
        Alu (Isa.Add, 3, 2, Imm 64);
        Ld (4, 3, 0);
        Alu (Isa.Add, 5, 5, Reg 4);
        Alu (Isa.Add, 2, 2, Imm 8);
        Br (Isa.Lt, 2, Imm 800, "loop");
        Halt ]
  in
  check bool "loop-variant address is fine" true
    (not
       (has_rule Lint.Invariant_address
          (Lint.check_program ~initialised:[ 1; 2; 5 ] variant)))

let test_lint_oob_range () =
  let open Program in
  let mem = Mem_image.create () in
  for i = 0 to 63 do
    Mem_image.set mem (0x8000 + (i * 8)) i
  done;
  let bounds = Option.get (Lint.bounds_of_image mem) in
  (* r1 is unknown at entry but masked into [0, 7] then rebased far past
     the image: the whole (non-singleton) range misses it. *)
  let prog =
    assemble ~name:"oob-range"
      [ Alu (Isa.And, 1, 1, Imm 7);
        Alu (Isa.Shl, 1, 1, Imm 3);
        Alu (Isa.Add, 1, 1, Imm 0x9000);
        Ld (2, 1, 0);
        Halt ]
  in
  let diags = Lint.check_program ~initialised:[ 1 ] ~bounds prog in
  check bool
    (Printf.sprintf "out-of-bounds-range fires (%s)" (diag_strings diags))
    true (has_rule Lint.Oob_range diags);
  (* The same shape rebased inside the image is clean. *)
  let inside =
    assemble ~name:"in-range"
      [ Alu (Isa.And, 1, 1, Imm 7);
        Alu (Isa.Shl, 1, 1, Imm 3);
        Alu (Isa.Add, 1, 1, Imm 0x8000);
        Ld (2, 1, 0);
        Halt ]
  in
  check bool "in-image range is clean" true
    (not (has_rule Lint.Oob_range (Lint.check_program ~initialised:[ 1 ] ~bounds inside)))

let test_lint_bad_register_short_circuits () =
  (* Register indexes past the file would crash the dataflow domains'
     unguarded array accesses; the lint must stop at the structural
     diagnostics instead. *)
  let prog =
    raw
      [ decoded ~dst:99 ~src1:99 ~src2:99 (Isa.Alu Isa.Add);
        decoded ~dst:1 ~src1:1 ~imm:0 Isa.Load;
        decoded Isa.Halt ]
  in
  let diags = Lint.check_program prog in
  check bool "bad-register fires" true (has_rule Lint.Bad_register diags);
  check bool "only structural rules run" true
    (List.for_all
       (fun d ->
         match d.Lint.rule with
         | Lint.Bad_register | Lint.Bad_target | Lint.Target_exits
         | Lint.Degenerate_branch -> true
         | _ -> false)
       diags)

(* ---------------- Slice verifier ---------------- *)

(* The spill-chase kernel from test_analysis: a pointer chase whose address
   chain passes through memory, so follow_memory matters. *)
let spill_chase_trace ?(nodes = 8_000) () =
  let rng = Prng.create 21 in
  let mem = Mem_image.create () in
  let order = Array.init nodes (fun i -> i) in
  Prng.shuffle rng order;
  for i = 0 to nodes - 1 do
    let addr = 0x400000 + (order.(i) * 128) in
    Mem_image.set mem addr (0x400000 + (order.((i + 1) mod nodes) * 128));
    Mem_image.set mem (addr + 64) (Prng.int rng 100)
  done;
  let open Program in
  let prog =
    assemble ~name:"spill_chase"
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
  Executor.run ~reg_init:[ (1, 0x400000); (2, 1024); (5, 3) ] ~mem_init:mem
    ~max_instrs:12_000 prog

let test_slice_verifier_accepts () =
  let trace = spill_chase_trace () in
  let deps = Deps.compute trace in
  List.iter
    (fun follow_memory ->
      let slice = Slicer.extract ~follow_memory trace deps ~root_pc:4 in
      let violations = Slice_check.verify_slice ~follow_memory trace deps slice in
      check int
        (Printf.sprintf "clean extraction verifies (follow_memory=%b)" follow_memory)
        0 (List.length violations))
    [ true; false ]

let violations_to_string vs =
  String.concat "; " (List.map (Format.asprintf "%a" Slice_check.pp_violation) vs)

let test_slice_verifier_rejects_corruption () =
  let trace = spill_chase_trace () in
  let deps = Deps.compute trace in
  let slice = Slicer.extract trace deps ~root_pc:4 in
  (* Drop a genuine member (the value load depends on the reload at pc 3):
     the closure is no longer closed. *)
  let dropped_member =
    let pcs = Array.copy slice.Slicer.pcs in
    pcs.(3) <- false;
    { slice with
      Slicer.pcs;
      pc_list = List.filter (fun pc -> pc <> 3) slice.Slicer.pc_list;
      edges = List.filter (fun (p, c) -> p <> 3 && c <> 3) slice.Slicer.edges }
  in
  check bool "missing member detected" true
    (Slice_check.verify_slice trace deps dropped_member <> []);
  (* Add a spurious member no dependency justifies. *)
  let spurious_pc = 2 in
  assert (not slice.Slicer.pcs.(spurious_pc));
  let spurious =
    let pcs = Array.copy slice.Slicer.pcs in
    pcs.(spurious_pc) <- true;
    { slice with
      Slicer.pcs;
      pc_list = List.sort compare (spurious_pc :: slice.Slicer.pc_list) }
  in
  check bool "spurious member detected" true
    (Slice_check.verify_slice trace deps spurious <> []);
  (* An edge that matches no dependency in the trace. *)
  let member = List.hd slice.Slicer.pc_list in
  let fake_edge = { slice with Slicer.edges = (4, member) :: slice.Slicer.edges } in
  let edge_violations = Slice_check.verify_slice trace deps fake_edge in
  check bool
    (Printf.sprintf "fabricated edge detected (%s)" (violations_to_string edge_violations))
    true
    (List.exists
       (fun (v : Slice_check.violation) ->
         v.Slice_check.pc = 4
         || String.length v.Slice_check.reason > 0)
       edge_violations
    && edge_violations <> [])

(* Open finding, pinned: a trace whose two dynamic instances of one
   static pc have different producers.  Both Slicer.extract and the
   verifier's independent walk stop expanding at the first-seen instance
   of a pc, so which instance gets expanded depends on traversal order:
   Slicer's LIFO stack reaches B (pc 2, fed by C at pc 3) first, while
   the verifier's recursive DFS reaches B' (pc 2, fed by D at pc 4)
   through A.  The slice is therefore {0,1,2,3} where the verifier
   expects {0,1,2,4}.  This test pins the current verdict so a fix to
   either walk shows up here (and in the goldens) on purpose.

   dyn index: 0:D(pc 4)  1:B'(pc 2 <- 0)  2:C(pc 3)  3:B(pc 2 <- 2)
              4:A(pc 1 <- 1)  5:R(pc 0 <- 4, 3) *)
let test_slice_order_dependent_finding () =
  let nop : Program.decoded =
    { Program.op = Isa.Nop; dst = -1; src1 = -1; src2 = -1; imm = 0; target = -1 }
  in
  let prog = { Program.name = "probe"; code = Array.make 5 nop; labels = [] } in
  let trace =
    { Executor.prog;
      dyns = Array.map (fun pc -> pc lsl 1) [| 4; 2; 3; 2; 1; 0 |];
      addrs = Array.make 6 (-1);
      final_pc = 0;
      halted = true }
  in
  let deps =
    { Deps.prod1 = [| -1; 0; -1; 2; 1; 4 |];
      prod2 = [| -1; -1; -1; -1; -1; 3 |];
      prod_mem = [| -1; -1; -1; -1; -1; -1 |] }
  in
  let slice = Slicer.extract trace deps ~root_pc:0 in
  check (Alcotest.list int) "Slicer.extract members" [ 0; 1; 2; 3 ] slice.Slicer.pc_list;
  check (Alcotest.list Alcotest.string) "verifier verdict"
    [ "pc 3: spurious member outside the backward closure";
      "pc 4: backward closure member missing from the slice (not closed)" ]
    (List.map (Format.asprintf "%a" Slice_check.pp_violation)
       (Slice_check.verify_slice trace deps slice))

(* Property: Slicer.extract output always verifies, on random programs,
   with and without dependencies through memory. *)
let prop_extract_always_verifies =
  QCheck.Test.make ~name:"Slicer.extract output always passes the closure check"
    ~count:12 QCheck.small_int (fun seed ->
      let trace = Random_loop.trace seed in
      let deps = Deps.compute trace in
      List.for_all
        (fun root_pc ->
          List.for_all
            (fun follow_memory ->
              let slice = Slicer.extract ~follow_memory trace deps ~root_pc in
              match Slice_check.verify_slice ~follow_memory trace deps slice with
              | [] -> true
              | vs ->
                QCheck.Test.fail_reportf "root %d (follow_memory=%b): %s" root_pc
                  follow_memory (violations_to_string vs))
            [ true; false ])
        (Random_loop.roots trace))

(* ---------------- Tagging verifier ---------------- *)

let analysis_artifacts () =
  let trace = spill_chase_trace () in
  let deps = Deps.compute trace in
  let report = Profiler.profile trace in
  let classified = Classifier.classify report Classifier.default in
  let options = Tagger.default_options in
  let tagger = Tagger.build ~options trace deps report classified in
  (report, options, tagger)

let test_tagging_verifier_accepts () =
  let report, options, tagger = analysis_artifacts () in
  check bool "tagger produced slices" true (tagger.Tagger.slices <> []);
  let violations = Slice_check.verify_tagging ~options report tagger in
  check int
    (Printf.sprintf "tagging verifies (%s)" (violations_to_string violations))
    0 (List.length violations)

let test_tagging_verifier_rejects_corruption () =
  let report, options, tagger = analysis_artifacts () in
  (* Flip one tag: the budget replay and static count both disagree. *)
  let some_pc =
    match tagger.Tagger.slices with
    | s :: _ -> s.Tagger.root_pc
    | [] -> Alcotest.fail "expected at least one slice"
  in
  let critical = Array.copy tagger.Tagger.critical in
  critical.(some_pc) <- not critical.(some_pc);
  let corrupt = { tagger with Tagger.critical } in
  check bool "flipped tag detected" true
    (Slice_check.verify_tagging ~options report corrupt <> []);
  (* Lie about a drop decision. *)
  let flipped_drop =
    match tagger.Tagger.slices with
    | s :: rest -> { tagger with Tagger.slices = { s with Tagger.dropped = not s.Tagger.dropped } :: rest }
    | [] -> assert false
  in
  check bool "flipped drop flag detected" true
    (Slice_check.verify_tagging ~options report flipped_drop <> [])

(* ---------------- Pipeline scoreboard ---------------- *)

let test_scoreboard_stats_identical () =
  let w = Catalog.make ~instrs:8_000 "pointer_chase" in
  let trace = Workload.trace w in
  List.iter
    (fun (label, policy, criticality) ->
      let cfg = Cpu_config.with_policy policy Cpu_config.skylake in
      let off = Cpu_core.run ~criticality cfg trace in
      let on =
        Cpu_core.run ~criticality (Cpu_config.with_scoreboard true cfg) trace
      in
      check bool (label ^ ": no violation and identical stats") true (off = on))
    [ ("oldest_ready", Scheduler.Oldest_ready, Cpu_core.No_tags);
      ("crisp", Scheduler.Crisp, Cpu_core.Static_tags (fun pc -> pc mod 3 = 0));
      ("random", Scheduler.Random_ready, Cpu_core.No_tags) ]

let test_scoreboard_catches_prio_bypass () =
  (* Hand-build an RS state where an older ready-and-critical instruction
     exists, then claim a younger non-critical slot was selected: the CRISP
     PRIO discipline is violated and the scoreboard must object. *)
  let cfg = Cpu_config.with_policy Scheduler.Crisp Cpu_config.skylake in
  let sched = Scheduler.create ~slots:8 ~span:8 Scheduler.Crisp in
  let older = Scheduler.allocate_slot sched ~critical:true in
  let younger = Scheduler.allocate_slot sched ~critical:false in
  Scheduler.mark_ready sched older;
  Scheduler.mark_ready sched younger;
  Scheduler.begin_cycle sched;
  let sb = Scoreboard.create cfg in
  check bool "bypassing the critical pick raises Violation" true
    (match
       Scoreboard.check_select sb sched ~cycle:1 ~slot:younger ~ready:true
         ~deps_left:0
     with
    | () -> false
    | exception Scoreboard.Violation _ -> true);
  (* The legitimate selection passes. *)
  let picked = Scheduler.select sched in
  check int "scheduler itself picks the critical instruction" older picked;
  Scoreboard.check_select sb sched ~cycle:1 ~slot:picked ~ready:true ~deps_left:0;
  check bool "checks were counted" true (Scoreboard.checks_run sb > 0)

let test_scoreboard_catches_out_of_order_retire () =
  let sb = Scoreboard.create Cpu_config.skylake in
  Scoreboard.check_retire sb ~cycle:10 ~dyn:5 ~expected:5;
  check bool "out-of-order retirement raises Violation" true
    (match Scoreboard.check_retire sb ~cycle:11 ~dyn:7 ~expected:6 with
    | () -> false
    | exception Scoreboard.Violation _ -> true)

let test_scheduler_self_check_clean () =
  let sched = Scheduler.create ~slots:16 ~span:16 Scheduler.Oldest_ready in
  let slots =
    List.init 10 (fun i ->
        let s = Scheduler.allocate_slot sched ~critical:(i mod 2 = 0) in
        Scheduler.mark_ready sched s;
        s)
  in
  check (Alcotest.option Alcotest.string) "sound state" None
    (Scheduler.self_check sched);
  List.iter (fun s -> Scheduler.issue sched s) slots;
  check (Alcotest.option Alcotest.string) "sound after drain" None
    (Scheduler.self_check sched)

(* ---------------- Check runner ---------------- *)

let test_check_runner_clean () =
  let r =
    Check_runner.check_workload ~instrs:8_000 ~train_instrs:6_000 ~scoreboard:true
      ~static:true "pointer_chase"
  in
  check bool
    (Format.asprintf "runner reports clean (%a)" Check_runner.pp_report r)
    true (Check_runner.ok r);
  check bool "slices were verified" true (r.Check_runner.roots > 0);
  check int "scoreboard comparisons ran" 2 (List.length r.Check_runner.scoreboard);
  match r.Check_runner.static with
  | None -> Alcotest.fail "static report requested but missing"
  | Some s ->
    check bool "static predictor deterministic" true s.Check_runner.deterministic;
    check bool "static predictor found the chase" true (s.Check_runner.candidates > 0)

let () =
  Alcotest.run "check"
    [ ( "lint",
        [ Alcotest.test_case "clean program" `Quick test_lint_clean;
          Alcotest.test_case "catalog matches the ledger" `Slow
            test_lint_catalog_clean;
          Alcotest.test_case "expected-findings ledger pinned" `Quick
            test_lint_catalog_ledger_pinned;
          Alcotest.test_case "bad target" `Quick test_lint_bad_target;
          Alcotest.test_case "bad register" `Quick test_lint_bad_register;
          Alcotest.test_case "target exits" `Quick test_lint_target_exits;
          Alcotest.test_case "undefined use" `Quick test_lint_undefined_use;
          Alcotest.test_case "self dependency" `Quick test_lint_self_dependency;
          Alcotest.test_case "unreachable" `Quick test_lint_unreachable;
          Alcotest.test_case "addresses" `Quick test_lint_addresses;
          Alcotest.test_case "degenerate branch" `Quick test_lint_degenerate_branch;
          Alcotest.test_case "dead store" `Quick test_lint_dead_store;
          Alcotest.test_case "dataflow unreachable" `Quick
            test_lint_dataflow_unreachable;
          Alcotest.test_case "loop-invariant address" `Quick
            test_lint_invariant_address;
          Alcotest.test_case "out-of-bounds range" `Quick test_lint_oob_range;
          Alcotest.test_case "bad register short-circuits dataflow" `Quick
            test_lint_bad_register_short_circuits ] );
      ( "slice_verifier",
        [ Alcotest.test_case "accepts clean slices" `Quick test_slice_verifier_accepts;
          Alcotest.test_case "rejects corruption" `Quick
            test_slice_verifier_rejects_corruption;
          Alcotest.test_case "order-dependent closure (open finding)" `Quick
            test_slice_order_dependent_finding;
          QCheck_alcotest.to_alcotest prop_extract_always_verifies ] );
      ( "tagging_verifier",
        [ Alcotest.test_case "accepts clean tagging" `Quick test_tagging_verifier_accepts;
          Alcotest.test_case "rejects corruption" `Quick
            test_tagging_verifier_rejects_corruption ] );
      ( "scoreboard",
        [ Alcotest.test_case "stats identical on/off" `Slow
            test_scoreboard_stats_identical;
          Alcotest.test_case "catches PRIO bypass" `Quick
            test_scoreboard_catches_prio_bypass;
          Alcotest.test_case "catches out-of-order retire" `Quick
            test_scoreboard_catches_out_of_order_retire;
          Alcotest.test_case "scheduler self-check" `Quick
            test_scheduler_self_check_clean ] );
      ( "runner",
        [ Alcotest.test_case "pointer_chase end-to-end" `Slow test_check_runner_clean ] ) ]
