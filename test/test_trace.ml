(* Tests for the trace substrate: PRNG, the assembler, the functional
   executor, dependency pre-computation and code layout. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ---------------- Prng ---------------- *)

let test_prng_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check int "same seed, same stream" (Prng.next a) (Prng.next b)
  done

let test_prng_bounds () =
  let rng = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 13 in
    check bool "bounded draw" true (v >= 0 && v < 13)
  done

let test_prng_shuffle_permutes () =
  let rng = Prng.create 3 in
  let a = Array.init 64 (fun i -> i) in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check bool "shuffle preserves elements" true (sorted = Array.init 64 (fun i -> i));
  check bool "shuffle moved something" true (a <> Array.init 64 (fun i -> i))

(* ---------------- Mem_image ---------------- *)

(* One step against a list of images: store to image [i], load from it,
   or open a copy-on-write view of it.  Image indices are taken modulo
   the number of images open at that point. *)
type image_op =
  | Set of int * int * int
  | Get of int * int
  | View of int

let gen_image_addr =
  let base = 0x1000_0000 in
  QCheck.Gen.(
    frequency
      [ (6, map (fun k -> base + (8 * k)) (int_bound 2_000));
        (2, map (fun k -> base + k) (int_bound 2_000));
        (2, map (fun k -> base + (4096 * k)) (int_range (-2_000) 2_000));
        (1, map (fun k -> -k) (int_bound 5_000));
        (1, map (fun k -> k * base) (int_range (-4) 64));
        (1, oneofl [ 0; 8; max_int; max_int - 7; min_int ]) ])

let gen_image_ops =
  QCheck.Gen.(
    list_size (int_range 1 300)
      (frequency
         [ (6, map3 (fun i a v -> Set (i, a, v)) small_nat gen_image_addr small_signed_int);
           (4, map2 (fun i a -> Get (i, a)) small_nat gen_image_addr);
           (1, map (fun i -> View i) small_nat) ]))

let print_image_op = function
  | Set (i, a, v) -> Printf.sprintf "set %d %#x %d" i a v
  | Get (i, a) -> Printf.sprintf "get %d %#x" i a
  | View i -> Printf.sprintf "view %d" i

(* The oracle: one Hashtbl binding per stored word, copied whole for a
   view. *)
let model_bounds m =
  if Hashtbl.length m = 0 then None
  else
    Some
      (Hashtbl.fold
         (fun a _ (lo, hi) -> (min lo a, if a + 8 > hi then a + 8 else hi))
         m (max_int, min_int))

let prop_mem_image_matches_hashtbl =
  QCheck.Test.make ~name:"Mem_image = Hashtbl model, views isolated" ~count:300
    (QCheck.make gen_image_ops ~print:(QCheck.Print.list print_image_op))
    (fun ops ->
      let images = ref [| (Mem_image.create (), Hashtbl.create 16) |] in
      let touched = Hashtbl.create 64 in
      let pick i = !images.(i mod Array.length !images) in
      let ok = ref true in
      List.iter
        (function
          | Set (i, a, v) ->
            let img, m = pick i in
            Hashtbl.replace touched a ();
            Mem_image.set img a v;
            Hashtbl.replace m a v
          | Get (i, a) ->
            let img, m = pick i in
            let want = Option.value ~default:0 (Hashtbl.find_opt m a) in
            if Mem_image.get img a <> want then ok := false
          | View i ->
            let img, m = pick i in
            images := Array.append !images [| (Mem_image.copy_on_write img, Hashtbl.copy m) |])
        ops;
      Array.iter
        (fun (img, m) ->
          if Mem_image.bounds img <> model_bounds m then ok := false;
          Hashtbl.iter
            (fun a () ->
              if Mem_image.get img a <> Option.value ~default:0 (Hashtbl.find_opt m a) then
                ok := false)
            touched)
        !images;
      !ok)

let test_mem_image_view_isolated () =
  let base = Mem_image.create () in
  Mem_image.set base 0x1000 1;
  Mem_image.set base 0x1008 2;
  let view = Mem_image.copy_on_write base in
  Mem_image.set view 0x1000 10;
  Mem_image.set view 0x9000_0000 11;
  Mem_image.set base 0x1008 20;
  check int "view store hidden from base" 1 (Mem_image.get base 0x1000);
  check int "base store hidden from view" 2 (Mem_image.get view 0x1008);
  check int "view reads its own store" 10 (Mem_image.get view 0x1000);
  check int "far store lands" 11 (Mem_image.get view 0x9000_0000);
  check bool "base bounds unchanged by the view" true
    (Mem_image.bounds base = Some (0x1000, 0x1010));
  check bool "empty image has no bounds" true (Mem_image.bounds (Mem_image.create ()) = None)

(* ---------------- Assembler ---------------- *)

let test_assemble_labels () =
  let open Program in
  let prog =
    assemble ~name:"t"
      [ Label "start"; Li (1, 5); Jmp "end"; Label "mid"; Nop; Label "end"; Halt ]
  in
  check int "labels occupy no slot" 4 (Array.length prog.code);
  check int "jmp resolves forward label" 3 prog.code.(1).target;
  check bool "start label at 0" true (List.mem_assoc "start" prog.labels)

let test_assemble_errors () =
  let open Program in
  (try
     ignore (assemble ~name:"dup" [ Label "a"; Label "a"; Halt ]);
     Alcotest.fail "duplicate label accepted"
   with Assembly_error _ -> ());
  (try
     ignore (assemble ~name:"undef" [ Jmp "nowhere" ]);
     Alcotest.fail "undefined label accepted"
   with Assembly_error _ -> ());
  try
    ignore (assemble ~name:"badreg" [ Li (Isa.num_regs, 0) ]);
    Alcotest.fail "bad register accepted"
  with Assembly_error _ -> ()

let test_decode_fields () =
  let open Program in
  let prog =
    assemble ~name:"fields"
      [ Ld (3, 4, 16); St (5, 6, 24); Br (Isa.Lt, 7, Imm 9, "l"); Label "l"; Halt ]
  in
  let ld = prog.code.(0) in
  check int "load dst" 3 ld.dst;
  check int "load base" 4 ld.src1;
  check int "load offset" 16 ld.imm;
  let st = prog.code.(1) in
  check int "store has no dst" (-1) st.dst;
  check int "store data reg" 5 st.src1;
  check int "store base reg" 6 st.src2;
  let br = prog.code.(2) in
  check int "branch immediate operand" 9 br.imm;
  check int "branch src2 absent" (-1) br.src2;
  check int "branch target" 3 br.target

(* ---------------- Executor ---------------- *)

let run_program ?(regs = []) ?mem insts =
  let prog = Program.assemble ~name:"t" insts in
  Executor.run ~reg_init:regs ?mem_init:mem ~max_instrs:10_000 prog

let test_executor_arithmetic () =
  let open Program in
  (* compute 6! iteratively: r1 = n, r2 = acc *)
  let trace =
    run_program ~regs:[ (1, 6); (2, 1) ]
      [ Label "loop";
        Br (Isa.Le, 1, Imm 0, "done");
        Mul (2, 2, 1);
        Alu (Isa.Sub, 1, 1, Imm 1);
        Jmp "loop";
        Label "done";
        St (2, 3, 0);
        Halt ]
  in
  check bool "halted" true trace.Executor.halted;
  (* the store captured the final accumulator *)
  let store =
    List.init (Executor.length trace) Fun.id
    |> List.find (fun i -> Executor.op trace i = Isa.Store)
  in
  check int "store address" 0 (Executor.addr trace store)

let test_executor_memory () =
  let open Program in
  let trace =
    run_program ~regs:[ (1, 1000) ]
      [ Li (2, 77); St (2, 1, 8); Ld (3, 1, 8); St (3, 1, 16); Halt ]
  in
  check int "load sees stored value via addr" 1008 (Executor.addr trace 2);
  check int "second store writes loaded value" 1016 (Executor.addr trace 3)

let test_executor_branch_outcomes () =
  let open Program in
  let trace =
    run_program ~regs:[ (1, 5) ]
      [ Br (Isa.Gt, 1, Imm 3, "taken"); Nop; Label "taken"; Halt ]
  in
  check bool "branch taken" true (Executor.taken trace 0);
  check int "branch target" 2 (Executor.next_pc trace 0);
  check int "nop skipped" 2 (Executor.length trace)

let test_executor_call_ret () =
  let open Program in
  let trace =
    run_program
      [ Call "f"; Li (1, 1); Halt; Label "f"; Li (2, 2); Ret ]
  in
  let pcs = Array.init (Executor.length trace) (Executor.pc trace) in
  check bool "call/ret sequence" true (pcs = [| 0; 3; 4; 1; 2 |])

let test_executor_ret_underflow_halts () =
  let open Program in
  let trace = run_program [ Ret; Nop ] in
  check bool "ret on empty stack halts" true trace.Executor.halted;
  check int "only the ret executed" 1 (Executor.length trace)

let test_executor_max_instrs () =
  let open Program in
  let prog = Program.assemble ~name:"inf" [ Label "l"; Nop; Jmp "l" ] in
  let trace = Executor.run ~max_instrs:100 prog in
  check bool "not halted" false trace.Executor.halted;
  check int "cut at limit" 100 (Executor.length trace)

let test_executor_counters () =
  let open Program in
  let trace =
    run_program ~regs:[ (1, 1000); (2, 3) ]
      [ Ld (3, 1, 0); St (3, 1, 8); Br (Isa.Eq, 2, Imm 3, "l"); Label "l";
        Prefetch (1, 0); Halt ]
  in
  check int "one load" 1 (Executor.load_count trace);
  check int "one conditional branch" 1 (Executor.branch_count trace)

let prop_executor_deterministic =
  QCheck.Test.make ~name:"executor is deterministic" ~count:50
    QCheck.(pair small_int small_int)
    (fun (seed, len) ->
      let rng = Prng.create (seed + 1) in
      let len = (len mod 20) + 5 in
      let open Program in
      let insts =
        List.init len (fun i ->
            match Prng.int rng 5 with
            | 0 -> Li (Prng.int rng 8, Prng.int rng 100)
            | 1 -> Alu (Isa.Add, Prng.int rng 8, Prng.int rng 8, Imm (Prng.int rng 10))
            | 2 -> Mul (Prng.int rng 8, Prng.int rng 8, Prng.int rng 8)
            | 3 -> St (Prng.int rng 8, 9, 8 * i)
            | _ -> Ld (Prng.int rng 8, 9, 8 * i))
      in
      let prog = assemble ~name:"rand" (insts @ [ Halt ]) in
      let t1 = Executor.run ~reg_init:[ (9, 4096) ] ~max_instrs:1000 prog in
      let t2 = Executor.run ~reg_init:[ (9, 4096) ] ~max_instrs:1000 prog in
      t1.Executor.dyns = t2.Executor.dyns && t1.Executor.addrs = t2.Executor.addrs)

(* The packed trace against the record-per-micro-op reference on random
   loop programs.  Starting the iteration counter [k] short of its bound
   makes the loop exit and halt inside some budgets, so halting and
   cut-off runs are both covered, as are zero-length ones. *)
let prop_executor_matches_reference =
  QCheck.Test.make ~name:"packed trace = reference executor" ~count:60
    QCheck.(triple small_nat small_nat (int_bound 6_000))
    (fun (seed, k, budget) ->
      let prog, reg_init, mem = Random_loop.setup seed in
      let reg_init =
        if k mod 3 = 0 then reg_init
        else (10, 1_000_000 - (k mod 40)) :: List.remove_assoc 10 reg_init
      in
      let t = Executor.run ~reg_init ~mem_init:mem ~max_instrs:budget prog in
      let r = Ref_executor.run ~reg_init ~mem_init:mem ~max_instrs:budget prog in
      match Ref_executor.agree r t with
      | None -> true
      | Some msg ->
        QCheck.Test.fail_reportf "seed %d, k %d, budget %d: %s" seed k budget msg)

(* ---------------- Deps ---------------- *)

let test_deps_registers () =
  let open Program in
  let trace =
    run_program [ Li (1, 3); Li (2, 4); Alu (Isa.Add, 3, 1, Reg 2); Halt ]
  in
  let deps = Deps.compute trace in
  check int "src1 producer" 0 deps.Deps.prod1.(2);
  check int "src2 producer" 1 deps.Deps.prod2.(2)

let test_deps_through_memory () =
  let open Program in
  let trace =
    run_program ~regs:[ (1, 512) ]
      [ Li (2, 9); St (2, 1, 0); Ld (3, 1, 0); Halt ]
  in
  let deps = Deps.compute trace in
  check int "load depends on the store through memory" 1 deps.Deps.prod_mem.(2);
  check bool "store listed among producers" true (List.mem 1 (Deps.producers deps 2))

let test_deps_no_false_memory_edge () =
  let open Program in
  let trace =
    run_program ~regs:[ (1, 512) ]
      [ Li (2, 9); St (2, 1, 0); Ld (3, 1, 64); Halt ]
  in
  let deps = Deps.compute trace in
  check int "different address, no memory edge" (-1) deps.Deps.prod_mem.(2)

(* ---------------- Layout ---------------- *)

let test_layout_prefix_grows_code () =
  let open Program in
  let prog = assemble ~name:"l" [ Li (1, 1); Ld (2, 1, 0); Halt ] in
  let base = Layout.static_bytes prog ~critical:(fun _ -> false) in
  let tagged = Layout.static_bytes prog ~critical:(fun pc -> pc = 1) in
  check int "one prefix byte added" (base + Isa.prefix_bytes) tagged;
  let layout = Layout.compute ~critical:(fun pc -> pc = 0) prog in
  check int "second instruction shifted by the prefix"
    (layout.Layout.base + Isa.byte_size Isa.Li + Isa.prefix_bytes)
    (Layout.addr_of layout 1)

let test_layout_dynamic_weighting () =
  let open Program in
  let prog =
    assemble ~name:"dyn" [ Li (1, 0); Label "l"; Alu (Isa.Add, 1, 1, Imm 1);
                           Br (Isa.Lt, 1, Imm 10, "l"); Halt ]
  in
  let trace = Executor.run ~max_instrs:1000 prog in
  let base = Layout.dynamic_bytes trace ~critical:(fun _ -> false) in
  let tagged = Layout.dynamic_bytes trace ~critical:(fun pc -> pc = 1) in
  (* pc 1 executes 10 times, so the dynamic footprint grows by 10 bytes *)
  check int "dynamic overhead = executions of the tagged pc" (base + 10) tagged

let () =
  Alcotest.run "trace"
    [ ( "prng",
        [ Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes ] );
      ( "mem_image",
        [ Alcotest.test_case "views isolated both ways" `Quick test_mem_image_view_isolated;
          QCheck_alcotest.to_alcotest prop_mem_image_matches_hashtbl ] );
      ( "assembler",
        [ Alcotest.test_case "label resolution" `Quick test_assemble_labels;
          Alcotest.test_case "assembly errors" `Quick test_assemble_errors;
          Alcotest.test_case "decoded fields" `Quick test_decode_fields ] );
      ( "executor",
        [ Alcotest.test_case "arithmetic loop" `Quick test_executor_arithmetic;
          Alcotest.test_case "memory round-trip" `Quick test_executor_memory;
          Alcotest.test_case "branch outcomes" `Quick test_executor_branch_outcomes;
          Alcotest.test_case "call and return" `Quick test_executor_call_ret;
          Alcotest.test_case "ret underflow halts" `Quick test_executor_ret_underflow_halts;
          Alcotest.test_case "instruction budget" `Quick test_executor_max_instrs;
          Alcotest.test_case "load/branch counters" `Quick test_executor_counters;
          QCheck_alcotest.to_alcotest prop_executor_deterministic;
          QCheck_alcotest.to_alcotest prop_executor_matches_reference ] );
      ( "deps",
        [ Alcotest.test_case "register producers" `Quick test_deps_registers;
          Alcotest.test_case "dependency through memory" `Quick test_deps_through_memory;
          Alcotest.test_case "no false memory edges" `Quick test_deps_no_false_memory_edge ] );
      ( "layout",
        [ Alcotest.test_case "prefix grows code" `Quick test_layout_prefix_grows_code;
          Alcotest.test_case "dynamic weighting" `Quick test_layout_dynamic_weighting ] ) ]
