(* long-trace: a million-instruction Ref trace per app, run in full on
   the OOO core and then through the interval sampler.  No FDO, no
   memo, no pool: trace memory and the timing engine dominate. *)

open Perfbench_kit
open Bench_common

let workload = "long-trace"
let apps = [ "pointer_chase"; "mcf"; "imgdnn" ]
let instrs = 1_000_000
let cfg = Cpu_config.with_policy Scheduler.Oldest_ready Cpu_config.skylake
let sample = Sample_config.default
let sampled_repeats = 3

type run = {
  app : string;
  build_s : float;  (** Catalog.make + Workload.trace *)
  full_s : float;
  sampled_s : float;  (** fastest of [sampled_repeats] runs *)
  full : Cpu_stats.t;
  sampled : Sampler.result;
}

let one app =
  (* Free the previous app's trace before building the next, outside
     the timed region, so peak memory is one trace's footprint rather
     than however many dead traces the collector had yet to reclaim. *)
  Gc.full_major ();
  Probe.run host;
  let tag = app in
  Span.record ~tag "long-trace" @@ fun parent ->
  let t0 = now () in
  let trace = traced_trace ~parent ~tag ~input:Workload.Ref ~instrs app in
  let t1 = now () in
  let full = cpu_run ~parent ~tag cfg trace in
  let t2 = now () in
  (* The sampled run is short, so it is timed [sampled_repeats] times
     and the fastest kept; it is deterministic, so any result will do. *)
  let timed_sample () =
    let t = now () in
    let r = Span.record ~parent ~tag "Sampler.run" (fun _ -> Sampler.run ~sample cfg trace) in
    Acc.sampled r;
    (r, now () -. t)
  in
  Probe.run host;
  let samples = List.init sampled_repeats (fun _ -> timed_sample ()) in
  let sampled = fst (List.hd samples) in
  { app; build_s = t1 -. t0; full_s = t2 -. t1;
    sampled_s = Pct.min_of (List.map snd samples); full; sampled }

let round () = List.map one apps

let cpi (s : Cpu_stats.t) = float_of_int s.Cpu_stats.cycles /. float_of_int s.Cpu_stats.retired

(* Simulated outputs pinned per app: the full run's statistics and the
   sampled estimate. *)
let outputs r =
  let s = r.full in
  let f = float_of_int in
  List.map
    (fun (k, v) -> (r.app ^ "/" ^ k, v))
    [ ("cycles", f s.Cpu_stats.cycles); ("retired", f s.Cpu_stats.retired);
      ("loads", f s.Cpu_stats.loads); ("stores", f s.Cpu_stats.stores);
      ("branches", f s.Cpu_stats.branches);
      ("branch_mispredicts", f s.Cpu_stats.branch_mispredicts);
      ("btb_misses", f s.Cpu_stats.btb_misses);
      ("critical_retired", f s.Cpu_stats.critical_retired);
      ("mlp_sum", s.Cpu_stats.mlp_sum); ("mlp_cycles", f s.Cpu_stats.mlp_cycles);
      ("dram_load_stalls", f s.Cpu_stats.head_stalls.Cpu_stats.dram_load);
      ("llc_misses", f s.Cpu_stats.mem.Memory_system.llc_misses);
      ("l1d_misses", f s.Cpu_stats.mem.Memory_system.l1d_misses);
      ("dram_requests", f s.Cpu_stats.mem.Memory_system.dram_requests);
      ("sampled_cpi", r.sampled.Sampler.cpi_mean);
      ("sampled_cpi_ci95", r.sampled.Sampler.cpi_ci95) ]

let sum f xs = List.fold_left (fun a x -> a +. f x) 0. xs
let minstrs r = float_of_int r.full.Cpu_stats.retired /. 1e6

(* Simulated M instructions per host second over build, trace and full
   run of every app in a round. *)
let mips runs = sum minstrs runs /. sum (fun r -> r.build_s +. r.full_s) runs

let ms x = x *. 1e3

(* Each app's fastest build, full run and sampled run over the run's
   rounds.  The host's slowdowns last seconds and hit whole rounds, and
   the simulation is deterministic, so the fastest of a run's ~6 rounds
   is the least disturbed one. *)
let best_round runs =
  List.map
    (fun app ->
      let mine = List.filter (fun r -> r.app = app) runs in
      let fastest f = Pct.min_of (List.map f mine) in
      { (List.hd mine) with
        build_s = fastest (fun r -> r.build_s);
        full_s = fastest (fun r -> r.full_s);
        sampled_s = fastest (fun r -> r.sampled_s) })
    apps

let e2e_of ~setup_s rounds =
  let runs = List.concat rounds in
  let best = best_round runs in
  let mips = mips best in
  let full_ms_per_minstr rs = ms (sum (fun r -> r.full_s) rs) /. sum minstrs rs in
  let p50 = full_ms_per_minstr best in
  let slowest = Pct.max_of (List.map (fun r -> full_ms_per_minstr [ r ]) best) in
  let sampled_ms = ms (sum (fun r -> r.sampled_s) best) in
  let speedup = sum (fun r -> r.full_s) best /. sum (fun r -> r.sampled_s) best in
  (* Simulated accuracy, from the first round (every round is identical). *)
  let first = List.hd rounds in
  let err r = Float.abs (r.sampled.Sampler.cpi_mean -. cpi r.full) in
  let err_pct =
    100. *. sum (fun r -> err r /. cpi r.full) first /. float_of_int (List.length first)
  in
  let ci_ratio = Pct.max_of (List.map (fun r -> err r /. r.sampled.Sampler.cpi_ci95) first) in
  let rss = peak_rss_mb () in
  let n = List.length rounds in
  ( [ m "setup_s" "s" setup_s; m "peak_rss_mb" "MB" rss; m "ops_per_s" "1/s" mips;
      m "op_p50_ms" "ms" p50; m "op_tail_ms" "ms" slowest; m "compute_p50_ms" "ms" sampled_ms ],
    [ m "setup_s" "s" setup_s; m "peak_rss_mb" "MB" rss;
      m (Printf.sprintf "sim_mips (fastest of %d rounds per app)" n) "Minstr/s" mips;
      m "full_ms_per_minstr (fastest round per app)" "ms" p50;
      m "full_ms_per_minstr_slowest_app" "ms" slowest;
      m "sampled_ms_per_round (fastest run per app)" "ms" sampled_ms;
      m "sampled_speedup (fastest full / fastest sampled)" "x" speedup;
      m "sampled_cpi_err_pct (sim, mean of apps)" "%" err_pct;
      m "sampled_ci_ratio (sim, worst app)" "ratio" ci_ratio ] )

(* Warm the allocator and code paths on a short trace outside the
   measured set. *)
let setup () =
  let w = Catalog.make ~input:Workload.Train ~instrs:200_000 "pointer_chase" in
  ignore (Cpu_core.run cfg (Workload.trace w));
  Gc.compact ()

let run ~seconds ~traced ~tally ~pinned ~pin =
  let (), setup_s = timed_setup ~reps:15 ~setup ~teardown:ignore in
  let rounds = timed_passes ~seconds round in
  let runs = List.concat rounds in
  List.iter
    (fun r ->
      List.iter
        (fun (k, v) ->
          if pin then Tally.Pinned.set pinned ~workload k v
          else Tally.expect tally pinned ~workload k v)
        (outputs r))
    runs;
  let e2e, shown = e2e_of ~setup_s rounds in
  if not traced then { e2e; shown; layers = [] }
  else begin
    Acc.reset ();
    Span.set_enabled true;
    let traced_runs = List.concat (timed_passes ~seconds:(seconds /. 2.) round) in
    Span.set_enabled false;
    (* The traced rounds call the same functions; their outputs must
       still be the pinned ones. *)
    drift_guard
      (List.map
         (fun t -> (t.app, t.full, (List.find (fun u -> u.app = t.app) runs).full))
         traced_runs);
    let extra =
      [ m "trace.bytes_per_instr" "B" (bytes_per_instr ~input:Workload.Ref ~instrs "pointer_chase");
        m "bench.trace_overhead_pct" "%"
          (overhead_pct ~untraced:(mips runs) ~traced:(mips traced_runs)) ]
    in
    { e2e; shown; layers = layers ~spans:(Span.spans ()) extra }
  end
