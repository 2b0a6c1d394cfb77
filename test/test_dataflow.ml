(* Soundness properties for the crisp_check dataflow engine.

   The oracle is Trace.Executor itself: a range fact is sound iff no
   dynamic register value ever falls outside its interval, and a
   footprint interval is sound iff it contains every effective address
   the pc produces.  Programs are generated Call/Ret-free — the solver
   models a call's fall-through with the call-site fact (callee effects
   invisible), a documented context-insensitive approximation that the
   replay oracle would rightly flag. *)

module RangesSolver = Dataflow.Solver (Dataflow.Ranges)
module LiveSolver = Dataflow.Solver (Dataflow.Live)
module ReachSolver = Dataflow.Solver (Dataflow.Reaching)

(* ---------------- random Call/Ret-free programs ---------------- *)

let words = 256

let mem_base = 0x40000

(* Structured generator: a counted loop of random blocks — masked
   gathers/scatters into a small image, ALU/Mul/Div arithmetic and
   data-dependent forward branches — so the solver sees back edges,
   joins, refinement and memory ops on every run. *)
let random_program seed =
  let rng = Prng.create (7_000 + seed) in
  let reg () = 1 + Prng.int rng 8 in
  let alu_kinds =
    [| Isa.Add; Isa.Sub; Isa.Xor; Isa.And; Isa.Or; Isa.Shl; Isa.Shr; Isa.Cmp |]
  in
  let open Program in
  let block b =
    let body =
      List.concat
        (List.init
           (2 + Prng.int rng 4)
           (fun _ ->
             match Prng.int rng 7 with
             | 0 ->
               [ Alu (Isa.And, 9, reg (), Imm (words - 1));
                 Alu (Isa.Shl, 9, 9, Imm 3);
                 Alu (Isa.Add, 9, 9, Imm mem_base);
                 Ld (reg (), 9, 0) ]
             | 1 ->
               [ Alu (Isa.And, 9, reg (), Imm (words - 1));
                 Alu (Isa.Shl, 9, 9, Imm 3);
                 Alu (Isa.Add, 9, 9, Imm mem_base);
                 St (reg (), 9, 0) ]
             | 2 -> [ Mul (reg (), reg (), reg ()) ]
             | 3 -> [ Div (reg (), reg (), reg ()) ]
             | 4 -> [ Li (reg (), Prng.int rng 10_000 - 5_000) ]
             | _ ->
               [ Alu
                   ( alu_kinds.(Prng.int rng (Array.length alu_kinds)),
                     reg (), reg (),
                     if Prng.int rng 2 = 0 then Reg (reg ())
                     else Imm (Prng.int rng 64) ) ]))
    in
    let skip = Printf.sprintf "skip%d" b in
    body
    @ [ Br
          ( (match Prng.int rng 4 with
            | 0 -> Isa.Lt
            | 1 -> Isa.Ge
            | 2 -> Isa.Eq
            | _ -> Isa.Ne),
            reg (), Imm (Prng.int rng 128), skip );
        Alu (Isa.Xor, reg (), reg (), Imm (b + 1));
        Label skip ]
  in
  let blocks = 2 + Prng.int rng 3 in
  let code =
    [ Label "loop" ]
    @ List.concat (List.init blocks block)
    @ [ Alu (Isa.Add, 10, 10, Imm 1);
        Br (Isa.Lt, 10, Imm 1_000_000, "loop");
        Halt ]
  in
  let prog = assemble ~name:(Printf.sprintf "df%d" seed) code in
  let reg_init = List.init 10 (fun r -> (r + 1, Prng.int rng 1_000)) in
  let mem_init = Mem_image.create () in
  for i = 0 to words - 1 do
    Mem_image.set mem_init (mem_base + (i * 8)) (Prng.int rng 1_000_000)
  done;
  (prog, reg_init, mem_init)

let solve_ranges prog reg_init =
  let cfg = Dataflow.Cfg.build prog.Program.code in
  let ranges =
    RangesSolver.solve cfg ~init:Dataflow.Ranges.Unreached
      ~entry:(Dataflow.Ranges.entry_of reg_init)
  in
  (cfg, ranges)

(* ---------------- property: range facts vs replay ---------------- *)

let prop_ranges_sound =
  QCheck.Test.make ~name:"no range fact is ever contradicted by replay" ~count:40
    QCheck.small_int (fun seed ->
      let prog, reg_init, mem_init = random_program seed in
      let _, ranges = solve_ranges prog reg_init in
      let failure = ref None in
      let note fmt = Printf.ksprintf (fun s -> failure := Some s) fmt in
      let on_step pc regs =
        if !failure = None then
          match ranges.Dataflow.before.(pc) with
          | Dataflow.Ranges.Unreached ->
            note "pc %d executed but its fact is Unreached" pc
          | Dataflow.Ranges.Env env ->
            Array.iteri
              (fun r i ->
                if not (Dataflow.Interval.mem regs.(r) i) then
                  note "pc %d: r%d = %d outside %s" pc r regs.(r)
                    (Format.asprintf "%a" Dataflow.Interval.pp i))
              env
      in
      ignore (Executor.run ~reg_init ~mem_init ~on_step ~max_instrs:4_000 prog);
      match !failure with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

(* ---------------- property: footprint intervals vs replay -------- *)

let prop_footprint_sound =
  QCheck.Test.make
    ~name:"every dynamic effective address lies in its footprint interval"
    ~count:40 QCheck.small_int (fun seed ->
      let prog, reg_init, mem_init = random_program seed in
      let cfg, ranges = solve_ranges prog reg_init in
      let fp = Dataflow.Footprint.compute cfg ~ranges in
      let trace = Executor.run ~reg_init ~mem_init ~max_instrs:4_000 prog in
      Array.for_all
        (fun k ->
          let pc = Executor.pc trace k and addr = Executor.addr trace k in
          addr < 0
          ||
          match fp.(pc) with
          | Some i when Dataflow.Interval.mem addr i -> true
          | Some i ->
            QCheck.Test.fail_reportf "pc %d: addr %d outside footprint %s" pc addr
              (Format.asprintf "%a" Dataflow.Interval.pp i)
          | None ->
            QCheck.Test.fail_reportf "pc %d executed a memory op with no footprint" pc)
        (Array.init (Executor.length trace) Fun.id))

(* ---------------- property: fixpoint termination ---------------- *)

(* Unstructured CFGs: raw decoded arrays whose branch/jump targets are
   arbitrary pcs, giving back edges the structured generator cannot
   produce (irreducible loops, branches into loop bodies).  The property
   is that every solve returns — widening must bound the interval
   lattice even here.  Register values are irrelevant; no replay. *)
let random_cfg seed =
  let rng = Prng.create (9_000 + seed) in
  let n = 8 + Prng.int rng 40 in
  let reg () = Prng.int rng 8 in
  let code =
    Array.init n (fun pc ->
        let d ?(dst = -1) ?(src1 = -1) ?(src2 = -1) ?(imm = 0) ?(target = -1) op =
          { Program.op; dst; src1; src2; imm; target }
        in
        if pc = n - 1 then d Isa.Halt
        else
          match Prng.int rng 8 with
          | 0 -> d ~dst:(reg ()) ~imm:(Prng.int rng 100) Isa.Li
          | 1 -> d ~dst:(reg ()) ~src1:(reg ()) ~src2:(reg ()) (Isa.Alu Isa.Add)
          | 2 -> d ~dst:(reg ()) ~src1:(reg ()) ~imm:(-1) ~src2:(-1) (Isa.Alu Isa.Sub)
          | 3 ->
            d ~src1:(reg ()) ~src2:(-1) ~imm:(Prng.int rng 64)
              ~target:(Prng.int rng n)
              (Isa.Branch (if Prng.int rng 2 = 0 then Isa.Lt else Isa.Ne))
          | 4 -> d ~target:(Prng.int rng n) Isa.Jump
          | 5 -> d ~dst:(reg ()) ~src1:(reg ()) ~imm:(Prng.int rng 512) Isa.Load
          | 6 -> d ~src1:(reg ()) ~src2:(reg ()) ~imm:(Prng.int rng 512) Isa.Store
          | _ -> d Isa.Nop)
  in
  code

let prop_fixpoint_terminates =
  QCheck.Test.make
    ~name:"the solver reaches a fixpoint on arbitrary CFGs with back edges"
    ~count:100 QCheck.small_int (fun seed ->
      let code = random_cfg seed in
      let cfg = Dataflow.Cfg.build code in
      let ranges =
        RangesSolver.solve cfg ~init:Dataflow.Ranges.Unreached
          ~entry:(Dataflow.Ranges.entry_of [])
      in
      let live =
        LiveSolver.solve ~direction:Dataflow.Backward cfg
          ~init:(Dataflow.Live.init ()) ~entry:(Dataflow.Live.init ())
      in
      let reach =
        ReachSolver.solve cfg ~init:(Dataflow.Reaching.init ())
          ~entry:(Dataflow.Reaching.entry ())
      in
      ranges.Dataflow.iterations > 0
      && live.Dataflow.iterations > 0
      && reach.Dataflow.iterations > 0)

(* ---------------- property: Static_crit determinism -------------- *)

let workload_of seed =
  let prog, reg_init, mem_init = random_program seed in
  { Workload.name = prog.Program.name;
    description = "random dataflow test program";
    program = prog;
    reg_init;
    mem_init;
    max_instrs = 4_000 }

let prop_static_crit_deterministic =
  QCheck.Test.make ~name:"Static_crit.analyze is deterministic" ~count:20
    QCheck.small_int (fun seed ->
      let w = workload_of seed in
      Static_crit.analyze w = Static_crit.analyze w)

(* ---------------- ground truth on catalog kernels ---------------- *)

let has_reason reason (st : Static_crit.t) =
  List.exists (fun c -> c.Static_crit.reason = reason) st.Static_crit.candidates

let test_static_crit_pointer_chase () =
  let st = Static_crit.analyze (Catalog.make ~instrs:8_000 "pointer_chase") in
  Alcotest.(check bool)
    "the pointer chase is predicted as a pointer chase" true
    (has_reason Static_crit.Pointer_chase st);
  List.iter
    (fun (c : Static_crit.candidate) ->
      Alcotest.(check bool)
        (Printf.sprintf "candidate %d has a non-empty slice" c.Static_crit.pc)
        true
        (c.Static_crit.slice <> [] && c.Static_crit.cost > 0))
    st.Static_crit.candidates

let test_static_crit_mcf () =
  let st = Static_crit.analyze (Catalog.make ~instrs:8_000 "mcf") in
  Alcotest.(check bool)
    "mcf: pointer chase found" true
    (has_reason Static_crit.Pointer_chase st);
  Alcotest.(check bool)
    "mcf: data-dependent branch found" true
    (has_reason Static_crit.Data_branch st)

let test_static_crit_xhpcg () =
  let st = Static_crit.analyze (Catalog.make ~instrs:8_000 "xhpcg") in
  Alcotest.(check bool)
    "xhpcg: indirect gather found" true
    (has_reason Static_crit.Indirect st)

let test_static_crit_streaming_quiet () =
  (* A regular streaming stencil gives the static predictor nothing:
     affine addresses are the stride prefetcher's job. *)
  let st = Static_crit.analyze (Catalog.make ~instrs:8_000 "fotonik") in
  Alcotest.(check int) "fotonik: no candidates" 0
    (List.length st.Static_crit.candidates)

(* Interval edge cases the random generator is unlikely to pin down. *)
let test_interval_ops () =
  let open Dataflow.Interval in
  let chk name v i = Alcotest.(check bool) name true (mem v i) in
  (* x land m is bounded by [0, m] for non-negative masks even when x
     is unknown: the payload scratch-buffer idiom. *)
  let masked = alu Isa.And top (const 0xF8) in
  chk "masked AND lower" 0 masked;
  chk "masked AND upper" 0xF8 masked;
  Alcotest.(check bool) "masked AND bounded" true (bounded masked);
  (* Division by an interval containing zero joins in the x/0 = 0
     executor semantics. *)
  chk "div by zero-containing interval keeps 0" 0 (div (const 100) (make (-1) 1));
  (* Singleton arithmetic is exact, including native wrap. *)
  (match is_const (add (const max_int) (const 1)) with
  | Some v -> Alcotest.(check bool) "singleton add wraps exactly" true (v = max_int + 1)
  | None -> Alcotest.fail "singleton add must stay constant");
  (* Non-singleton arithmetic that may wrap must go to top, never
     saturate. *)
  Alcotest.(check bool) "possibly-wrapping add is top" false
    (bounded (add (make 0 max_int) (make 0 max_int)))

let () =
  Alcotest.run "dataflow"
    [ ( "soundness",
        [ QCheck_alcotest.to_alcotest prop_ranges_sound;
          QCheck_alcotest.to_alcotest prop_footprint_sound ] );
      ("termination", [ QCheck_alcotest.to_alcotest prop_fixpoint_terminates ]);
      ( "static_crit",
        [ QCheck_alcotest.to_alcotest prop_static_crit_deterministic;
          Alcotest.test_case "pointer_chase ground truth" `Quick
            test_static_crit_pointer_chase;
          Alcotest.test_case "mcf ground truth" `Quick test_static_crit_mcf;
          Alcotest.test_case "xhpcg ground truth" `Quick test_static_crit_xhpcg;
          Alcotest.test_case "streaming kernel stays quiet" `Quick
            test_static_crit_streaming_quiet ] );
      ("intervals", [ Alcotest.test_case "edge cases" `Quick test_interval_ops ]) ]
