(* Quickstart: run the full CRISP flow on one workload.

     dune exec examples/quickstart.exe [workload]

   Steps (paper Figure 5): execute the train input, profile it, classify
   delinquent loads and hard branches, extract and filter slices, tag the
   binary, then evaluate the ref input on the cycle-level core with the
   baseline and CRISP schedulers. *)

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "mcf" in
  Printf.printf "CRISP quickstart on %S\n%!" name;

  (* 1. profile the train input and build the criticality tags *)
  let train = Workload.trace (Catalog.make ~input:Workload.Train ~instrs:80_000 name) in
  let tagging = Tagger.analyze train in
  (* every delinquent load and hard branch roots one slice *)
  let roots kind =
    List.length (List.filter (fun s -> s.Tagger.kind = kind) tagging.Tagger.slices)
  in
  Printf.printf "\nSoftware pass (train input):\n";
  Printf.printf "  delinquent loads   %d\n" (roots `Load);
  Printf.printf "  hard branches      %d\n" (roots `Branch);
  Printf.printf "  tagged static pcs  %d\n" tagging.Tagger.static_count;
  Printf.printf "  dynamic tag ratio  %.1f%%  (guardrail: at most 40%%)\n"
    (100. *. tagging.Tagger.dynamic_ratio);

  (* 2. evaluate on the ref input *)
  let eval_trace = Workload.trace (Catalog.make ~input:Workload.Ref ~instrs:100_000 name) in
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
  Printf.printf "\nEvaluation (ref input, %d micro-ops):\n"
    (Executor.length eval_trace);
  Printf.printf "  OOO baseline  IPC %.3f  (LLC MPKI %.1f, br-mpki %.1f)\n"
    (Cpu_stats.ipc ooo) (Cpu_stats.mpki_llc ooo) (Cpu_stats.mispredicts_per_ki ooo);
  Printf.printf "  CRISP         IPC %.3f\n" (Cpu_stats.ipc crisp);
  Printf.printf "  speedup       %+.1f%%\n"
    (100. *. ((Cpu_stats.ipc crisp /. Cpu_stats.ipc ooo) -. 1.))
