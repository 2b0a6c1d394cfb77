(* Tests for lib/sample — interval (SMARTS-style) sampling with
   confidence bounds — and for the sampled path through Runner.

   The acceptance bar: on every catalog workload the sampled CPI must
   fall within its own declared 95% confidence interval of the full
   detailed run, and a sampled cell must keep a memo identity apart
   from the full-fidelity cell at the same coordinates. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let cfg = Cpu_config.skylake

let trace_of ?(input = Workload.Ref) ~instrs name =
  let w = Catalog.make ~input ~instrs name in
  Workload.trace w

(* ---------------- Sample_config ---------------- *)

let test_config_roundtrip () =
  let s = Sample_config.default in
  (* Farm cell keys and sampled memo identities embed this text. *)
  check Alcotest.string "default canonical form" "units=30,unit=1000,warmup=2000"
    (Sample_config.to_string s);
  (match Sample_config.of_string (Sample_config.to_string s) with
  | Ok s' -> check bool "default round-trips" true (s = s')
  | Error msg -> Alcotest.failf "default did not round-trip: %s" msg);
  match Sample_config.of_string "units=8,unit=500,warmup=1000" with
  | Error msg -> Alcotest.failf "explicit config rejected: %s" msg
  | Ok s ->
    check int "units" 8 s.Sample_config.units;
    check int "unit" 500 s.Sample_config.unit_len;
    check int "warmup" 1000 s.Sample_config.warmup_len;
    check bool "canonical form round-trips" true
      (Sample_config.of_string (Sample_config.to_string s) = Ok s)

let test_config_rejects_garbage () =
  List.iter
    (fun spec ->
      match Sample_config.of_string spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted invalid config %S" spec)
    [ "units=0"; "unit=-5"; "warmup=x"; "nonsense"; "units"; "ci=0";
      "units=1,units" ]

(* ---------------- the catalog-wide CI battery ---------------- *)

(* Every workload, sampled at the default config, must land within its
   own declared 95% CI of the full run's CPI.  Deterministic: unit
   placement is systematic, so this either always holds or never does. *)
let test_sampled_within_ci () =
  let instrs = 100_000 in
  let sample = Sample_config.default in
  let failures =
    List.filter_map
      (fun name ->
        let trace = trace_of ~instrs name in
        let full = Cpu_core.run cfg trace in
        let full_cpi =
          float_of_int full.Cpu_stats.cycles
          /. float_of_int full.Cpu_stats.retired
        in
        let s = Sampler.run ~sample cfg trace in
        let err = Float.abs (s.Sampler.cpi_mean -. full_cpi) in
        if err > s.Sampler.cpi_ci95 +. 1e-9 then
          Some
            (Printf.sprintf "%s: sampled %.4f vs full %.4f (|err| %.4f > ci %.4f)"
               name s.Sampler.cpi_mean full_cpi err s.Sampler.cpi_ci95)
        else None)
      Catalog.names
  in
  if failures <> [] then
    Alcotest.failf "%d workload(s) outside their declared CI:\n  %s"
      (List.length failures)
      (String.concat "\n  " failures)

(* One unit spanning the whole trace, with no warmup, is the full run:
   the sampler's warm carrier (adopted, then quiesced, before any
   fast-forward) must be exactly a cold start. *)
let test_one_unit_is_full_run () =
  let instrs = 20_000 in
  let sample = { Sample_config.unit_len = instrs; warmup_len = 0; units = 1 } in
  let mismatched =
    List.filter
      (fun name ->
        let trace = trace_of ~instrs name in
        let full = Cpu_core.run cfg trace in
        let sampled = (Sampler.run ~sample cfg trace).Sampler.stats in
        sampled <> full)
      Catalog.names
  in
  check (Alcotest.list Alcotest.string) "workloads whose one-unit sample differs"
    [] mismatched

let test_sampler_deterministic () =
  let trace = trace_of ~instrs:60_000 "mcf" in
  let sample = Sample_config.default in
  let a = Sampler.run ~sample cfg trace in
  let b = Sampler.run ~sample cfg trace in
  check bool "identical results on identical inputs" true (a = b);
  check int "total instrs is the trace length" 60_000 a.Sampler.total_instrs;
  check bool "measured a strict subset" true
    (a.Sampler.measured_instrs > 0
    && a.Sampler.measured_instrs < a.Sampler.total_instrs)

(* ---------------- Runner: one memo, two identities ---------------- *)

(* A full and a sampled Gain cell on the same coordinates share the one
   Runner memo but never an entry: each misses separately, the sampled
   outcome is exactly a direct [Sampler.run] on the same trace, and a
   full rerun is served from the memo with the same value. *)
let test_runner_memo_identity () =
  Runner.clear_cache ();
  let eval_instrs = 20_000 and train_instrs = 15_000 and name = "mcf" in
  let sample = Sample_config.default in
  let column = { Grid.label = "CRISP"; variant = "crisp"; threshold = None; window = None } in
  let cell ?sample () =
    Grid.cell_value ?sample ~eval_instrs ~train_instrs ~name ~metric:Grid.Gain column
  in
  let counters () =
    let s = Runner.cache_stats () in
    (s.Exec.Memo.hits, s.Exec.Memo.misses)
  in
  let h0, m0 = counters () in
  let full = cell () in
  let h1, m1 = counters () in
  check int "full cell misses for OOO and CRISP" 2 (m1 - m0);
  check int "full cell hits nothing" 0 (h1 - h0);
  let sampled = cell ~sample () in
  let h2, m2 = counters () in
  check int "sampled cell misses separately" 2 (m2 - m1);
  check int "sampled cell reuses no full entry" 0 (h2 - h1);
  let memo =
    Runner.evaluate ~eval_instrs ~train_instrs ~sample ~name Runner.Ooo
  in
  let direct =
    Sampler.run ~sample
      (Cpu_config.with_policy Scheduler.Oldest_ready cfg)
      (trace_of ~instrs:eval_instrs name)
  in
  check (Alcotest.float 0.) "sampled IPC = direct Sampler.run"
    (Cpu_stats.ipc direct.Sampler.stats)
    (Cpu_stats.ipc memo.Runner.stats);
  let h3, m3 = counters () in
  check int "sampled OOO lookup hits" 1 (h3 - h2);
  check int "sampled OOO lookup runs nothing" 0 (m3 - m2);
  check bool "sampled cell is finite" true (Float.is_finite sampled);
  let again = cell () in
  let h4, m4 = counters () in
  check int "full rerun hits both entries" 2 (h4 - h3);
  check int "full rerun runs nothing" 0 (m4 - m3);
  check (Alcotest.float 0.) "full rerun returns the same value" full again

(* ---------------- Experiments: a sampled figure ---------------- *)

(* A figure run with a sample config routes every grid cell through the
   sampled path — fig9's rows equal [Grid.cell_value ~sample] cell for
   cell — and the pool that runs the cells changes nothing. *)
let test_sampled_figure () =
  let sizes = { Experiments.eval_instrs = 4_000; train_instrs = 3_000 } in
  let sample =
    { Sample_config.units = 4; unit_len = 400; warmup_len = 400 }
  in
  let ctx = { Experiments.default with Experiments.sizes; sample = Some sample } in
  let fig9 ctx =
    Runner.clear_cache ();
    let rows = ref [] in
    let text = Resil.Capture.stdout (fun () -> rows := Experiments.fig9 ctx) in
    (!rows, text)
  in
  let rows, text = fig9 ctx in
  let pool = Exec.Pool.create ~workers:2 () in
  let pooled_rows, pooled_text =
    Fun.protect
      ~finally:(fun () -> Exec.Pool.shutdown pool)
      (fun () -> fig9 { ctx with Experiments.pool })
  in
  let cells = Alcotest.(list (pair string (list (float 0.)))) in
  check cells "same rows on 1 and 2 workers" rows pooled_rows;
  check Alcotest.string "same figure text on 1 and 2 workers" text pooled_text;
  let cell ?sample name column =
    Grid.cell_value ?sample ~eval_instrs:sizes.Experiments.eval_instrs
      ~train_instrs:sizes.Experiments.train_instrs ~name ~metric:Grid.Gain column
  in
  check (Alcotest.list Alcotest.string) "one row per fig9 workload"
    Grid.fig9.Grid.names (List.map fst rows);
  List.iter
    (fun (name, values) ->
      List.iter2
        (fun (column : Grid.column) v ->
          check (Alcotest.float 0.)
            (Printf.sprintf "%s/%s = sampled Grid.cell_value" name column.Grid.label)
            (cell ~sample name column) v)
        Grid.fig9.Grid.columns values)
    rows;
  let mcf_crisp = List.hd Grid.fig9.Grid.columns in
  check bool "the sampled cell is not the full-fidelity one" true
    (cell ~sample "mcf" mcf_crisp <> cell "mcf" mcf_crisp);
  Runner.clear_cache ()

(* ---------------- fast-forward vs detailed prefix ---------------- *)

(* Compact loop-bearing generator modeled on test_dataflow's: counted
   loop of random blocks mixing masked loads/stores into a small image,
   ALU/Mul/Div arithmetic and data-dependent forward branches. *)
let words = 128
let mem_base = 0x40000

let random_program seed =
  let rng = Prng.create (9_100 + seed) in
  let reg () = 1 + Prng.int rng 8 in
  let open Program in
  let block b =
    let body =
      List.concat
        (List.init
           (2 + Prng.int rng 3)
           (fun _ ->
             match Prng.int rng 6 with
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
             | 3 -> [ Li (reg (), Prng.int rng 10_000 - 5_000) ]
             | _ ->
               [ Alu
                   ( (if Prng.int rng 2 = 0 then Isa.Add else Isa.Xor),
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
  let prog = assemble ~name:(Printf.sprintf "sm%d" seed) code in
  let reg_init = List.init 10 (fun r -> (r + 1, Prng.int rng 1_000)) in
  let mem_init = Mem_image.create () in
  for i = 0 to words - 1 do
    Mem_image.set mem_init (mem_base + (i * 8)) (Prng.int rng 1_000_000)
  done;
  (prog, reg_init, mem_init)

(* Functional fast-forward must be architecturally exact.  The sampler
   fast-forwards over the full trace and opens a detail window at index
   [b], so the trace a run truncated at [b] records must be exactly the
   first [b] micro-ops of the full trace; the register snapshot the
   on_step replay oracle takes before each micro-op must reproduce every
   effective address in that prefix; and the detailed core, fed the
   prefix, retires exactly [b] micro-ops.  Together these pin the
   sampler's fast-forward to the state a detailed simulation stopped at
   the same boundary would have. *)
let prop_fast_forward_matches_detailed_prefix =
  QCheck.Test.make
    ~name:"fast-forward snapshot = truncated run = replay oracle" ~count:20
    QCheck.small_int (fun seed ->
      let prog, reg_init, mem_init = random_program seed in
      let max_instrs = 3_000 in
      let full = Executor.run ~reg_init ~mem_init ~max_instrs prog in
      let n = Executor.length full in
      if n < 20 then true
      else begin
        let b = 1 + ((seed * 7919) mod (n - 1)) in
        let prefix =
          { full with
            Executor.dyns = Array.sub full.Executor.dyns 0 b;
            addrs = Array.sub full.Executor.addrs 0 b;
            final_pc = Executor.pc full b }
        in
        let truncated =
          Executor.run ~reg_init ~mem_init ~max_instrs:b prog
        in
        let bad_addr = ref None in
        let step = ref 0 in
        let on_step _pc regs =
          (if !step < b && !bad_addr = None then
             let code = prog.Program.code.(Executor.pc prefix !step) in
             let expect =
               match Executor.op prefix !step with
               | Isa.Load | Isa.Prefetch -> regs.(code.Program.src1) + code.Program.imm
               | Isa.Store -> regs.(code.Program.src2) + code.Program.imm
               | _ -> -1
             in
             if expect <> Executor.addr prefix !step then bad_addr := Some !step);
          incr step
        in
        ignore (Executor.run ~reg_init ~mem_init ~on_step ~max_instrs prog);
        if truncated.Executor.dyns <> prefix.Executor.dyns
           || truncated.Executor.addrs <> prefix.Executor.addrs
           || truncated.Executor.final_pc <> prefix.Executor.final_pc
        then
          QCheck.Test.fail_report "truncated run <> prefix of the full trace"
        else
          match !bad_addr with
          | Some i ->
            QCheck.Test.fail_reportf
              "micro-op %d: effective address <> replay-oracle registers" i
          | None ->
            let stats = Cpu_core.run cfg prefix in
            if stats.Cpu_stats.retired <> b then
              QCheck.Test.fail_reportf
                "detailed prefix run retired %d, wanted exactly %d"
                stats.Cpu_stats.retired b
            else true
      end)

let () =
  Alcotest.run "sample"
    [ ( "config",
        [ Alcotest.test_case "round-trip" `Quick test_config_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_config_rejects_garbage
        ] );
      ( "sampler",
        [ Alcotest.test_case "catalog within declared CI" `Slow
            test_sampled_within_ci;
          Alcotest.test_case "one whole-trace unit is the full run" `Slow
            test_one_unit_is_full_run;
          Alcotest.test_case "deterministic" `Quick test_sampler_deterministic ] );
      ( "runner",
        [ Alcotest.test_case "sampled and full cells memoised apart" `Quick
            test_runner_memo_identity ] );
      ( "experiments",
        [ Alcotest.test_case "sampled fig9 = sampled cells, any pool" `Slow
            test_sampled_figure ] );
      ( "fast_forward",
        [ QCheck_alcotest.to_alcotest prop_fast_forward_matches_detailed_prefix
        ] ) ]
