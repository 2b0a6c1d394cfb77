(* Tests for the observability layer: ring buffer, histograms, JSON,
   golden diff, the shared scheduler instrumentation hook, exporters, and
   the end-to-end trace self-consistency properties. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ---------------- Ring buffer ---------------- *)

let test_ring_overflow () =
  let ring = Obs_ring.create ~capacity:4 in
  for i = 0 to 9 do
    Obs_ring.record ring ~cycle:i ~kind:1 ~a:(10 * i) ~b:i
  done;
  check int "length capped at capacity" 4 (Obs_ring.length ring);
  check int "all records counted" 10 (Obs_ring.recorded ring);
  check int "overwritten records counted as dropped" 6 (Obs_ring.dropped ring);
  let seen = ref [] in
  Obs_ring.iter (fun ~cycle ~kind:_ ~a:_ ~b:_ -> seen := cycle :: !seen) ring;
  check (Alcotest.list int) "retains the newest window oldest-first" [ 6; 7; 8; 9 ]
    (List.rev !seen)

(* ---------------- Histograms ---------------- *)

let test_hist_buckets () =
  let h = Obs_hist.create () in
  List.iter (Obs_hist.add h) [ 0; 1; 2; 3; 8; -5 ];
  check int "count" 6 (Obs_hist.count h);
  check int "sum (negatives clamp to 0)" 14 (Obs_hist.sum h);
  check int "max" 8 (Obs_hist.max_value h);
  check int "bucket of 0" 0 (Obs_hist.bucket_index 0);
  check int "bucket of 1" 1 (Obs_hist.bucket_index 1);
  check int "bucket of 3" 2 (Obs_hist.bucket_index 3);
  check int "bucket of 8" 4 (Obs_hist.bucket_index 8);
  check (Alcotest.list (Alcotest.pair int int)) "bucket contents"
    [ (0, 2); (1, 1); (2, 2); (8, 1) ]
    (Obs_hist.buckets h)

(* ---------------- JSON ---------------- *)

let test_json_roundtrip () =
  let doc =
    Obs_json.Obj
      [ ("name", Obs_json.Str "a\"b\\c\n");
        ("n", Obs_json.num_int 42);
        ("x", Obs_json.Num 0.1);
        ("flags", Obs_json.Arr [ Obs_json.Bool true; Obs_json.Null ]) ]
  in
  check bool "parse inverts print" true (Obs_json.parse (Obs_json.to_string doc) = doc);
  check bool "malformed input raises" true
    (match Obs_json.parse "{\"a\": }" with
    | _ -> false
    | exception Obs_json.Parse_error _ -> true);
  check bool "trailing garbage raises" true
    (match Obs_json.parse "1 2" with
    | _ -> false
    | exception Obs_json.Parse_error _ -> true)

(* ---------------- Golden vectors ---------------- *)

let test_golden_diff () =
  let golden = Obs_golden.normalise [ ("b", 2.); ("a", 1.) ] in
  check int "identical vectors: no mismatch" 0
    (List.length (Obs_golden.diff ~golden [ ("a", 1.); ("b", 2.) ]));
  (match Obs_golden.diff ~golden [ ("a", 1.); ("b", 2.5) ] with
  | [ Obs_golden.Drift { key = "b"; golden = 2.; actual = 2.5; _ } ] -> ()
  | other ->
    Alcotest.failf "expected one drift on b, got %d mismatches" (List.length other));
  (match Obs_golden.diff ~golden [ ("a", 1.) ] with
  | [ Obs_golden.Missing "b" ] -> ()
  | _ -> Alcotest.fail "expected Missing b");
  (match Obs_golden.diff ~golden [ ("a", 1.); ("b", 2.); ("c", 3.) ] with
  | [ Obs_golden.Extra "c" ] -> ()
  | _ -> Alcotest.fail "expected Extra c");
  let rtol_for key = if key = "b" then 0.5 else 0. in
  check int "tolerance absorbs small drift" 0
    (List.length (Obs_golden.diff ~rtol_for ~golden [ ("a", 1.); ("b", 2.5) ]));
  check bool "duplicate keys rejected" true
    (match Obs_golden.normalise [ ("a", 1.); ("a", 2.) ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_golden_json_roundtrip () =
  let vector = Obs_golden.normalise [ ("obs.fetch", 123.); ("ooo.ipc", 1.375) ] in
  let meta = [ ("schema", "crisp-golden-1"); ("workload", "unit") ] in
  let meta', vector' =
    Obs_golden.of_json_string (Obs_golden.to_json_string ~meta vector)
  in
  check bool "meta round-trips" true (List.for_all (fun kv -> List.mem kv meta') meta);
  check bool "entries round-trip exactly" true (vector = vector')

(* ---------------- Shared scheduler hook ---------------- *)

let test_hook_fires_once_per_select () =
  let sched = Scheduler.create ~slots:8 ~span:8 Scheduler.Oldest_ready in
  let fired = ref [] in
  Scheduler.set_on_select sched
    (Some (fun ~slot ~prio_override -> fired := (slot, prio_override) :: !fired));
  let slots =
    List.init 3 (fun _ ->
        let s = Scheduler.allocate_slot sched ~critical:false in
        Scheduler.mark_ready sched s;
        s)
  in
  Scheduler.begin_cycle sched;
  let picks = List.filter_map (fun _ -> let s = Scheduler.select sched in
                                if s >= 0 then Some s else None) slots in
  check int "select returned one pick per ready slot" 3 (List.length picks);
  check int "hook fired exactly once per pick" 3 (List.length !fired);
  check bool "hook saw the picked slots in order" true
    (List.rev_map fst !fired = picks);
  check bool "oldest-ready never reports a PRIO override" true
    (List.for_all (fun (_, o) -> not o) !fired);
  Scheduler.set_on_select sched None;
  check bool "no pick left" true (Scheduler.select sched < 0)

let test_hook_reports_prio_override () =
  let sched = Scheduler.create ~slots:8 ~span:8 Scheduler.Crisp in
  let older = Scheduler.allocate_slot sched ~critical:false in
  let younger = Scheduler.allocate_slot sched ~critical:true in
  Scheduler.mark_ready sched older;
  Scheduler.mark_ready sched younger;
  let fired = ref [] in
  Scheduler.set_on_select sched
    (Some (fun ~slot ~prio_override -> fired := (slot, prio_override) :: !fired));
  Scheduler.begin_cycle sched;
  check int "PRIO picks the younger critical instruction" younger
    (Scheduler.select sched);
  check int "and then the older one" older (Scheduler.select sched);
  match List.rev !fired with
  | [ (s1, o1); (s2, o2) ] ->
    check int "first hook slot" younger s1;
    check bool "critical-over-oldest pick is an override" true o1;
    check int "second hook slot" older s2;
    check bool "draining the remaining oldest is not an override" false o2
  | fired -> Alcotest.failf "expected 2 hook firings, got %d" (List.length fired)

(* ---------------- Zero-cost-when-off: bit-identical statistics -------- *)

let test_obs_off_stats_identical () =
  let w = Catalog.make ~instrs:8_000 "pointer_chase" in
  let trace = Workload.trace w in
  List.iter
    (fun (label, policy, criticality) ->
      let cfg = Cpu_config.with_policy policy Cpu_config.skylake in
      let base = Cpu_core.run ~criticality cfg trace in
      (* Passing a tracer is the only switch: the plain configuration
         must feed it every event. *)
      let tracer = Obs_tracer.create () in
      let traced = Cpu_core.run ~criticality ~tracer cfg trace in
      check bool (label ^ ": obs on leaves stats bit-identical") true (base = traced);
      check int (label ^ ": tracer saw every retirement")
        base.Cpu_stats.retired (Obs_tracer.counter tracer "retire");
      (* Scoreboard and tracer share the single scheduler hook: both
         observers on at once must also leave statistics untouched. *)
      let both_cfg = Cpu_config.with_scoreboard true cfg in
      let both_tracer = Obs_tracer.create () in
      let both = Cpu_core.run ~criticality ~tracer:both_tracer both_cfg trace in
      check bool (label ^ ": scoreboard + tracer on one hook, stats identical")
        true (base = both);
      check int
        (label ^ ": tracer behind the shared hook sees the same selections")
        (Obs_tracer.counter tracer "select")
        (Obs_tracer.counter both_tracer "select"))
    [ ("oldest_ready", Scheduler.Oldest_ready, Cpu_core.No_tags);
      ("crisp", Scheduler.Crisp, Cpu_core.Static_tags (fun pc -> pc mod 3 = 0));
      ("random", Scheduler.Random_ready, Cpu_core.No_tags) ]

(* Without a tracer or scoreboard the cycle loop skips quiet cycles in
   bulk; with either attached it steps every cycle.  So an observed run
   is the stepping reference for the skipping one: every app, policy and
   window must give the same statistics both ways. *)
let test_skip_matches_stepping () =
  let windows = [ (96, 224); (64, 180) ] in
  (* A demand fill completes together with its load, but a software
     prefetch's fill has no wheel event of its own: over lines no load
     touches, the skip must stop at each such fill to keep the MLP sum
     exact. *)
  let prefetching =
    let open Program in
    Executor.run ~reg_init:[ (2, 0x400_0000); (4, 0x10_0000) ]
      ~mem_init:(Mem_image.create ()) ~max_instrs:3_000
      (assemble ~name:"unused_prefetch"
         [ Label "loop";
           Prefetch (2, 0);
           Alu (Isa.Add, 2, 2, Imm 4096);
           Ld (3, 4, 0);
           Alu (Isa.Add, 4, 4, Imm 8192);
           Mul (5, 3, 3);
           Mul (5, 5, 3);
           Alu (Isa.Add, 10, 10, Imm 1);
           Br (Isa.Lt, 10, Imm 1_000_000, "loop");
           Halt ])
  in
  List.iter
    (fun (name, trace) ->
      List.iter
        (fun (label, policy, criticality) ->
          List.iter
            (fun (rs, rob) ->
              let cfg =
                Cpu_config.with_window ~rs ~rob
                  (Cpu_config.with_policy policy Cpu_config.skylake)
              in
              let skipped = Cpu_core.run ~criticality cfg trace in
              let stepped =
                Cpu_core.run ~criticality ~tracer:(Obs_tracer.create ()) cfg trace
              in
              if skipped <> stepped then
                Alcotest.failf "%s %s rs=%d rob=%d: skipping core differs from stepping"
                  name label rs rob)
            windows)
        [ ("oldest_ready", Scheduler.Oldest_ready, Cpu_core.No_tags);
          ("crisp", Scheduler.Crisp, Cpu_core.Static_tags (fun pc -> pc mod 3 = 0));
          ("random", Scheduler.Random_ready, Cpu_core.No_tags) ])
    (("unused_prefetch", prefetching)
    :: List.map (fun n -> (n, Workload.trace (Catalog.make ~instrs:3_000 n))) Catalog.names);
  (* The sampler's windows restart the clock on warmed state; the
     scoreboard alone also turns the skip off. *)
  let trace = Workload.trace (Catalog.make ~instrs:24_000 "mcf") in
  let sample = { Sample_config.units = 4; unit_len = 1_500; warmup_len = 1_500 } in
  let cfg = Cpu_config.with_policy Scheduler.Crisp Cpu_config.skylake in
  let criticality = Cpu_core.Static_tags (fun pc -> pc mod 3 = 0) in
  let run cfg = (Sampler.run ~criticality ~sample cfg trace).Sampler.stats in
  check bool "Sampler.run: scoreboard on/off, stats identical" true
    (run cfg = run (Cpu_config.with_scoreboard true cfg))

(* ---------------- Trace self-consistency (property) ---------------- *)

(* Random little programs in the idiom of test_check: a loop of blocks
   mixing gathers, stores, arithmetic and data-dependent branches. *)
let random_trace seed =
  let rng = Prng.create (4_000 + seed) in
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
             match Prng.int rng 6 with
             | 0 ->
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
             | 3 -> [ Fdiv (reg (), reg (), reg ()) ]
             | 4 -> [ Fadd (reg (), reg (), reg ()) ]
             | _ ->
               [ Alu
                   ( alu_kinds.(Prng.int rng (Array.length alu_kinds)),
                     reg (), reg (),
                     if Prng.int rng 2 = 0 then Reg (reg ())
                     else Imm (Prng.int rng 64) ) ]))
    in
    let skip = Printf.sprintf "skip%d" b in
    body
    @ [ Br ((if Prng.int rng 2 = 0 then Isa.Lt else Isa.Ge), reg (),
            Imm (Prng.int rng 128), skip);
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
  Executor.run ~reg_init ~mem_init:mem ~max_instrs:5_000
    (assemble ~name:(Printf.sprintf "obs_random%d" seed) code)

let check_trace_consistency label (stats : Cpu_stats.t) tracer =
  let c = Obs_tracer.counter tracer in
  let ce name expected =
    if c name <> expected then
      QCheck.Test.fail_reportf "%s: counter %s = %d, expected %d" label name
        (c name) expected
  in
  (* The model executes no wrong path, so every fetched instruction flows
     through each stage exactly once. *)
  ce "fetch" stats.Cpu_stats.retired;
  ce "dispatch" stats.retired;
  ce "issue" stats.retired;
  ce "complete" stats.retired;
  ce "retire" stats.retired;
  ce "retire_critical" stats.critical_retired;
  ce "cycles_sampled" stats.cycles;
  ce "redirect_mispredict" stats.branch_mispredicts;
  ce "redirect_btb_miss" stats.btb_misses;
  ce "redirect_ras" stats.ras_mispredicts;
  ce "l1i_miss" stats.mem.Memory_system.l1i_misses;
  ce "prefetch" stats.mem.prefetches_issued;
  if c "l1d_miss_llc" + c "l1d_miss_mem" <> stats.mem.l1d_misses then
    QCheck.Test.fail_reportf "%s: l1d miss events %d+%d <> stats %d" label
      (c "l1d_miss_llc") (c "l1d_miss_mem") stats.mem.l1d_misses;
  if c "select" < c "issue" then
    QCheck.Test.fail_reportf "%s: %d selections < %d issues" label (c "select")
      (c "issue");
  (* Every event the tracer ever counted went through the ring. *)
  let ring_total =
    List.fold_left
      (fun acc (name, v) ->
        if name = "events_recorded" || name = "events_dropped"
           || name = "cycles_sampled" || name = "prio_override"
           || name = "retire_critical"
        then acc
        else acc + v)
      0 (Obs_tracer.counters tracer)
  in
  if ring_total <> c "events_recorded" then
    QCheck.Test.fail_reportf "%s: counters sum to %d events but ring recorded %d"
      label ring_total (c "events_recorded");
  (* Per-instruction stage stamps are monotone and complete. *)
  let retired_stamps = ref 0 in
  for dyn = 0 to Obs_tracer.num_dyns tracer - 1 do
    match Obs_tracer.stamp tracer dyn with
    | None -> ()
    | Some st ->
      if st.Obs_tracer.retire >= 0 then begin
        incr retired_stamps;
        if st.fetch < 0 || st.dispatch < 0 || st.issue < 0 || st.complete < 0 then
          QCheck.Test.fail_reportf "%s: dyn %d retired without passing every stage"
            label dyn;
        if
          not
            (st.fetch <= st.dispatch && st.dispatch <= st.issue
            && st.issue <= st.complete && st.complete <= st.retire)
        then
          QCheck.Test.fail_reportf
            "%s: dyn %d stage cycles not monotone (%d %d %d %d %d)" label dyn
            st.fetch st.dispatch st.issue st.complete st.retire
      end
  done;
  if !retired_stamps <> stats.retired then
    QCheck.Test.fail_reportf "%s: %d stamped retirements, stats say %d" label
      !retired_stamps stats.retired;
  true

let prop_trace_self_consistent =
  QCheck.Test.make
    ~name:"tracer events reconcile with Cpu_stats on random programs" ~count:10
    QCheck.small_int (fun seed ->
      let trace = random_trace seed in
      List.for_all
        (fun (label, policy, criticality) ->
          let cfg = Cpu_config.with_policy policy Cpu_config.skylake in
          let tracer = Obs_tracer.create () in
          let stats = Cpu_core.run ~criticality ~tracer cfg trace in
          check_trace_consistency (Printf.sprintf "seed %d %s" seed label) stats
            tracer)
        [ ("oldest_ready", Scheduler.Oldest_ready, Cpu_core.No_tags);
          ("crisp", Scheduler.Crisp,
           Cpu_core.Static_tags (fun pc -> pc mod 3 = 0)) ])

(* ---------------- Exporters ---------------- *)

let traced_pointer_chase =
  lazy
    (let w = Catalog.make ~instrs:6_000 "pointer_chase" in
     let trace = Workload.trace w in
     let cfg = Cpu_config.with_policy Scheduler.Crisp Cpu_config.skylake in
     let tracer = Obs_tracer.create () in
     let stats =
       Cpu_core.run ~criticality:(Cpu_core.Static_tags (fun pc -> pc mod 3 = 0))
         ~tracer cfg trace
     in
     (stats, tracer))

(* ---------------- Figure 1's data ---------------- *)

let test_retire_timeline () =
  let stats, tracer = Lazy.force traced_pointer_chase in
  let timeline = Obs_tracer.retire_timeline tracer in
  check int "one entry per cycle" stats.Cpu_stats.cycles (Array.length timeline);
  check int "entries sum to retired" stats.Cpu_stats.retired
    (Array.fold_left ( + ) 0 timeline);
  check
    (Alcotest.list (Alcotest.pair int (Alcotest.float 0.)))
    "windows of 2, short last window"
    [ (0, 1.5); (2, 0.); (4, 6.) ]
    (Array.to_list (Report.windowed_mean ~window:2 [| 1; 2; 0; 0; 6 |]))

let test_jsonl_export_parses () =
  let _, tracer = Lazy.force traced_pointer_chase in
  let buf = Buffer.create 4096 in
  Obs_export.jsonl buf tracer;
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  check int "one line per retained ring event"
    (Obs_ring.length (Obs_tracer.ring tracer))
    (List.length lines);
  List.iter
    (fun line ->
      match Obs_json.parse line with
      | Obs_json.Obj fields ->
        List.iter
          (fun f ->
            if not (List.mem_assoc f fields) then
              Alcotest.failf "jsonl line missing %S: %s" f line)
          [ "c"; "k"; "a"; "b" ]
      | _ -> Alcotest.failf "jsonl line is not an object: %s" line)
    lines

let test_chrome_export_valid () =
  let stats, tracer = Lazy.force traced_pointer_chase in
  let buf = Buffer.create 65536 in
  Obs_export.chrome_trace buf tracer;
  match Obs_json.parse (Buffer.contents buf) with
  | Obs_json.Obj fields -> (
    match List.assoc_opt "traceEvents" fields with
    | Some (Obs_json.Arr events) ->
      check bool "trace has events" true (events <> []);
      let durations =
        List.filter
          (fun e ->
            match Obs_json.member "ph" e with
            | Some (Obs_json.Str "X") -> true
            | _ -> false)
          events
      in
      check int "one duration event per retired instruction"
        stats.Cpu_stats.retired (List.length durations);
      List.iter
        (fun e ->
          let num f =
            match Obs_json.member f e with
            | Some v -> Obs_json.to_float v
            | None -> Alcotest.failf "X event missing %S" f
          in
          if num "dur" < 1. then Alcotest.fail "X event with dur < 1";
          if num "ts" < 0. then Alcotest.fail "X event with negative ts")
        durations
    | _ -> Alcotest.fail "traceEvents missing or not an array")
  | _ -> Alcotest.fail "chrome trace is not a JSON object"

let () =
  Alcotest.run "obs"
    [ ( "ring",
        [ Alcotest.test_case "overflow" `Quick test_ring_overflow ] );
      ("hist", [ Alcotest.test_case "buckets" `Quick test_hist_buckets ]);
      ("json", [ Alcotest.test_case "round-trip" `Quick test_json_roundtrip ]);
      ( "golden",
        [ Alcotest.test_case "diff" `Quick test_golden_diff;
          Alcotest.test_case "json round-trip" `Quick test_golden_json_roundtrip ] );
      ( "hook",
        [ Alcotest.test_case "fires once per select" `Quick
            test_hook_fires_once_per_select;
          Alcotest.test_case "reports PRIO overrides" `Quick
            test_hook_reports_prio_override ] );
      ( "pipeline",
        [ Alcotest.test_case "stats identical with obs off/on" `Slow
            test_obs_off_stats_identical;
          Alcotest.test_case "skipping core = stepping core, all apps" `Slow
            test_skip_matches_stepping;
          QCheck_alcotest.to_alcotest prop_trace_self_consistent ] );
      ("timeline", [ Alcotest.test_case "UPC timeline" `Quick test_retire_timeline ]);
      ( "export",
        [ Alcotest.test_case "jsonl parses" `Quick test_jsonl_export_parses;
          Alcotest.test_case "chrome trace valid" `Quick test_chrome_export_valid ] ) ]
