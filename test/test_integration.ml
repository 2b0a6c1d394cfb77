(* End-to-end integration tests: the full FDO flow, the experiment runner,
   and the headline behaviours the paper reports. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let sizes = { Experiments.eval_instrs = 60_000; train_instrs = 50_000 }

let ctx = { Experiments.default with Experiments.sizes }

(* IPC of [variant] over the OOO baseline on the same workload. *)
let speedup name variant =
  let ipc variant =
    Cpu_stats.ipc
      (Runner.evaluate ~eval_instrs:sizes.Experiments.eval_instrs
         ~train_instrs:sizes.Experiments.train_instrs ~name variant)
        .Runner.stats
  in
  ipc variant /. ipc Runner.Ooo

let test_fdo_flow () =
  let w = Catalog.pointer_chase ~input:Workload.Train ~instrs:40_000 () in
  let tagging = Tagger.analyze (Workload.trace w) in
  check bool "delinquent loads found" true
    (List.exists (fun s -> s.Tagger.kind = `Load) tagging.Tagger.slices);
  check bool "tags produced" true (tagging.Tagger.static_count > 0);
  check bool "tag ratio sane" true (tagging.Tagger.dynamic_ratio < 0.40001)

(* A memoised CRISP outcome keeps the tag map, never the train trace it
   was profiled on: the memo would otherwise pin one trace per cell. *)
let test_outcome_does_not_pin_trace () =
  let name = "mcf" and eval_instrs = 20_000 and train_instrs = 15_000 in
  let outcome =
    Runner.evaluate ~eval_instrs ~train_instrs ~name Runner.crisp_default
  in
  let train_words =
    Obj.reachable_words
      (Obj.repr
         (Workload.trace (Catalog.make ~input:Workload.Train ~instrs:train_instrs name)))
  in
  let outcome_words = Obj.reachable_words (Obj.repr outcome) in
  if 4 * outcome_words >= train_words then
    Alcotest.failf "outcome reaches %d words, train trace %d" outcome_words train_words

let test_crisp_beats_ooo_on_pointer_chase () =
  let s = speedup "pointer_chase" Runner.crisp_default in
  check bool "CRISP gains >5% on the microbenchmark" true (s > 1.05)

let test_crisp_neutral_on_streaming () =
  let s = speedup "fotonik" Runner.crisp_default in
  check bool "no effect on prefetcher-covered code" true (abs_float (s -. 1.) < 0.01)

let test_crisp_declines_high_mlp () =
  let s = speedup "bwaves" Runner.crisp_default in
  check bool "no tags, no change on high-MLP phases" true (abs_float (s -. 1.) < 0.01)

let test_crisp_beats_ibda_where_memory_deps_matter () =
  (* namd's slice passes through a stack spill that IBDA cannot see *)
  let crisp = speedup "namd" Runner.crisp_default in
  let ibda = speedup "namd" (Runner.Ibda Ibda.ist_infinite) in
  check bool "CRISP >= IBDA on namd" true (crisp >= ibda -. 0.002)

let test_runner_caching () =
  Runner.clear_cache ();
  let t0 = Unix.gettimeofday () in
  let a =
    Runner.evaluate ~eval_instrs:30_000 ~train_instrs:20_000 ~name:"mcf" Runner.Ooo
  in
  let t1 = Unix.gettimeofday () in
  let b =
    Runner.evaluate ~eval_instrs:30_000 ~train_instrs:20_000 ~name:"mcf" Runner.Ooo
  in
  let t2 = Unix.gettimeofday () in
  check bool "cached result identical" true (a.Runner.stats = b.Runner.stats);
  check bool "cached result fast" true (t2 -. t1 < (t1 -. t0) /. 5.)

let test_branch_slices_help_branch_bound_code () =
  let combined = speedup "deepsjeng" Runner.crisp_default in
  let branch_only =
    speedup "deepsjeng" (Runner.Crisp (Classifier.default, Tagger.branch_slices_only))
  in
  check bool "branch slices alone carry deepsjeng" true (branch_only > 1.02);
  check bool "combined at least comparable" true (combined >= branch_only -. 0.05)

let test_prefix_grows_footprint () =
  let rows = Experiments.fig12 ctx in
  List.iter
    (fun (name, values) ->
      match values with
      | [ static_overhead; dynamic_overhead; _ ] ->
        check bool (name ^ " static overhead within 10%") true
          (static_overhead >= 0. && static_overhead < 0.10);
        check bool (name ^ " dynamic overhead within 15%") true
          (dynamic_overhead >= 0. && dynamic_overhead < 0.15)
      | _ -> Alcotest.fail "fig12 row shape")
    rows

let test_fig3_slice () =
  let pcs = Experiments.fig3 () in
  check bool "microbenchmark slice is compact" true (List.length pcs <= 4)

(* Runner's Ooo variant runs the caller's scheduler policy, so the
   ablations' random column measures the random-pick scheduler instead of
   re-running the oldest-ready baseline. *)
let test_ooo_runs_config_policy () =
  let name = "namd" and eval_instrs = 20_000 and train_instrs = 15_000 in
  let random = Cpu_config.with_policy Scheduler.Random_ready Cpu_config.skylake in
  let ooo_ipc cfg =
    Cpu_stats.ipc
      (Runner.evaluate ~cfg ~eval_instrs ~train_instrs ~name Runner.Ooo).Runner.stats
  in
  let direct =
    Cpu_core.run random
      (Workload.trace (Catalog.make ~input:Workload.Ref ~instrs:eval_instrs name))
  in
  check bool "random-ready differs from oldest-ready" true
    (ooo_ipc random <> ooo_ipc Cpu_config.skylake);
  check (Alcotest.float 0.) "random-ready = direct Cpu_core.run"
    (Cpu_stats.ipc direct) (ooo_ipc random)

(* Runner's layer memos are invisible: cells evaluated in a shuffled
   order, with the tag-map and eval-trace memos already warm, give the
   stats of the pipeline run by hand without Runner.  The warm-up tags
   every app with other tagger options first, so a tag-map key that
   forgot the options would serve the wrong tags.  The cells run on
   fig9's four RS/ROB windows, each listed with the LQ/SQ sizes that
   follow from its ROB (Table 1's 64/128 at the 224-entry ROB). *)
let test_layer_memos_invisible () =
  let eval_instrs = 8_000 and train_instrs = 6_000 in
  let names = [ "mcf"; "moses"; "pointer_chase" ] in
  let queues cfg = (Cpu_config.lq_size cfg, Cpu_config.sq_size cfg) in
  let pair = Alcotest.(pair int int) in
  check pair "skylake LQ/SQ" (64, 128) (queues Cpu_config.skylake);
  let cfgs =
    List.map
      (fun (rs, rob, lq, sq) ->
        let cfg = Cpu_config.with_window ~rs ~rob Cpu_config.skylake in
        check pair (Printf.sprintf "%d/%d LQ/SQ" rs rob) (lq, sq) (queues cfg);
        cfg)
      [ (64, 180, 51, 102); (96, 224, 64, 128); (144, 336, 96, 192);
        (192, 448, 128, 256) ]
  in
  let variants = [ Runner.Ooo; Runner.crisp_default; Runner.Ibda Ibda.ist_8k ] in
  let oracle name =
    let trace input instrs = Workload.trace (Catalog.make ~input ~instrs name) in
    let eval = trace Workload.Ref eval_instrs in
    let train = trace Workload.Train train_instrs in
    fun cfg variant ->
      let crisp = Cpu_config.with_policy Scheduler.Crisp cfg in
      match variant with
      | Runner.Ooo -> Cpu_core.run cfg eval
      | Runner.Crisp (thresholds, options) ->
        let tagging =
          Tagger.analyze ~thresholds ~options ~mem_params:cfg.Cpu_config.mem train
        in
        Cpu_core.run
          ~criticality:(Cpu_core.Static_tags (Tagger.is_critical tagging))
          crisp eval
      | Runner.Ibda ibda_cfg ->
        let result = Ibda.analyze ~mem_params:cfg.Cpu_config.mem ibda_cfg eval in
        Cpu_core.run
          ~criticality:(Cpu_core.Dynamic_tags (Ibda.is_critical result))
          crisp eval
  in
  let cells =
    List.concat_map
      (fun name ->
        let oracle = oracle name in
        List.concat_map
          (fun cfg -> List.map (fun v -> (name, cfg, v, oracle cfg v)) variants)
          cfgs)
      names
  in
  let rng = Random.State.make [| 24 |] in
  let shuffled =
    List.map snd
      (List.sort compare (List.map (fun c -> (Random.State.bits rng, c)) cells))
  in
  Runner.clear_cache ();
  List.iter
    (fun name ->
      ignore
        (Runner.evaluate ~eval_instrs ~train_instrs ~name
           (Runner.Crisp (Classifier.default, Tagger.branch_slices_only))))
    names;
  List.iter
    (fun (name, (cfg : Cpu_config.t), variant, expected) ->
      let got =
        (Runner.evaluate ~cfg ~eval_instrs ~train_instrs ~name variant).Runner.stats
      in
      if got <> expected then
        Alcotest.failf "%s rs=%d rob=%d: Runner %d cycles, pipeline %d" name
          cfg.Cpu_config.rs_size cfg.Cpu_config.rob_size got.Cpu_stats.cycles
          expected.Cpu_stats.cycles)
    shuffled;
  Runner.clear_cache ()

let test_fig1_series () =
  let ooo, crisp = Experiments.fig1 ctx in
  check bool "OOO series non-empty" true (Array.length ooo > 0);
  check bool "CRISP series non-empty" true (Array.length crisp > 0);
  let mean series = Report.mean (Array.to_list (Array.map snd series)) in
  check bool "CRISP mean UPC beats OOO" true (mean crisp > mean ooo)

let test_experiment_shapes () =
  let fig4 = Experiments.fig4 ctx in
  check int "fig4 covers all apps" (List.length Experiments.apps) (List.length fig4);
  let moses_slice = List.assoc "moses" fig4 in
  let fotonik_slice = List.assoc "fotonik" fig4 in
  check bool "moses slices dwarf fotonik's" true (moses_slice > fotonik_slice);
  let fig11 = Experiments.fig11 ctx in
  let moses_tags = List.assoc "moses" fig11 in
  let imgdnn_tags = List.assoc "imgdnn" fig11 in
  check bool "moses tags many more instructions than imgdnn" true
    (moses_tags > imgdnn_tags)

let () =
  Alcotest.run "integration"
    [ ( "integration",
        [ Alcotest.test_case "FDO flow end-to-end" `Quick test_fdo_flow;
          Alcotest.test_case "CRISP > OOO on pointer chase" `Slow
            test_crisp_beats_ooo_on_pointer_chase;
          Alcotest.test_case "neutral on streaming" `Slow test_crisp_neutral_on_streaming;
          Alcotest.test_case "declines high-MLP loads" `Slow test_crisp_declines_high_mlp;
          Alcotest.test_case "CRISP vs IBDA on memory deps" `Slow
            test_crisp_beats_ibda_where_memory_deps_matter;
          Alcotest.test_case "runner caching" `Slow test_runner_caching;
          Alcotest.test_case "branch slices on branch-bound code" `Slow
            test_branch_slices_help_branch_bound_code;
          Alcotest.test_case "prefix footprint bounds" `Slow test_prefix_grows_footprint;
          Alcotest.test_case "figure 3 slice" `Quick test_fig3_slice;
          Alcotest.test_case "figure shapes" `Slow test_experiment_shapes;
          Alcotest.test_case "OOO runs the config's scheduler policy" `Quick
            test_ooo_runs_config_policy;
          Alcotest.test_case "memo entries do not pin traces" `Quick
            test_outcome_does_not_pin_trace;
          Alcotest.test_case "layer memos are invisible" `Quick test_layer_memos_invisible;
          Alcotest.test_case "fig1 UPC series" `Slow test_fig1_series ] ) ]
