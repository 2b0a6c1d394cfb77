(* Reproduce the shape of Figure 1: the per-cycle retirement (UPC) of the
   pointer-chasing microbenchmark under the OOO baseline and under CRISP.

     dune exec examples/pointer_chase_timeline.exe

   The baseline alternates full-speed bursts with long stalls at each
   linked-list miss; CRISP promotes the pointer chain past the vector
   work, shortening the stalls. *)

let () =
  let train =
    Workload.trace (Catalog.pointer_chase ~input:Workload.Train ~instrs:60_000 ())
  in
  let tagging = Tagger.analyze train in
  let trace = Workload.trace (Catalog.pointer_chase ~input:Workload.Ref ~instrs:30_000 ()) in
  (* the timeline is read from a tracer's retire stamps *)
  let run policy criticality =
    let tracer = Obs_tracer.create () in
    let cfg = Cpu_config.with_policy policy Cpu_config.skylake in
    let stats = Cpu_core.run ~criticality ~tracer cfg trace in
    (stats, Report.windowed_mean ~window:25 (Obs_tracer.retire_timeline tracer))
  in
  let ooo, ooo_upc = run Scheduler.Oldest_ready Cpu_core.No_tags in
  let crisp, crisp_upc =
    run Scheduler.Crisp (Cpu_core.Static_tags (Tagger.is_critical tagging))
  in
  Report.print_series ~title:"OOO baseline: UPC over time" ooo_upc;
  Report.print_series ~title:"CRISP: UPC over time" crisp_upc;
  Printf.printf "\naverage UPC: OOO %.3f, CRISP %.3f (%+.1f%%)\n" (Cpu_stats.ipc ooo)
    (Cpu_stats.ipc crisp)
    (100. *. ((Cpu_stats.ipc crisp /. Cpu_stats.ipc ooo) -. 1.));
  Printf.printf "ROB-head stall cycles on DRAM loads: OOO %d, CRISP %d\n"
    ooo.Cpu_stats.head_stalls.Cpu_stats.dram_load
    crisp.Cpu_stats.head_stalls.Cpu_stats.dram_load
