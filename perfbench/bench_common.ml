(* Shared plumbing of the three workloads: the clock, peak memory, the
   pool size, set-up timing, the per-layer accumulators and the replay of
   one evaluation cell as the public calls [Runner.run_variant] makes. *)

open Perfbench_kit

let now = Unix.gettimeofday

(* fig9-cold's pool workers.  Two worker domains on the 2-vCPU
   reference box stall each other at every stop-the-world minor
   collection and share its caches: a cell's median service time rose
   from 132 ms to 230 ms, and run-to-run spread with it, for a 20%
   shorter pass. *)
let workers = 1

(* The run's host-speed probes; see [Probe]. *)
let host = Probe.create ()

(* Peak resident set (VmHWM) of this process, in MB; one workload runs
   per process, so this is the workload's peak. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
  in
  scan ()

let live_mb () =
  Gc.full_major ();
  float_of_int (Gc.stat ()).Gc.live_words *. float_of_int (Sys.word_size / 8) /. 1048576.

(* Run [setup] [reps] times, tearing down every instance but the last;
   set-up time is the median, so one slow start does not move it.  A
   host probe runs first. *)
let timed_setup ~reps ~setup ~teardown =
  Probe.run host;
  let rec go k times =
    let t0 = now () in
    let v = setup () in
    let times = (now () -. t0) :: times in
    if k <= 1 then (v, Pct.median times)
    else begin
      teardown v;
      go (k - 1) times
    end
  in
  go reps []

(* Repeat [pass] within [seconds]: always run one, and start another
   only if, at the pace of the passes so far, it will end in time. *)
let timed_passes ~seconds pass =
  let t0 = now () in
  let rec go acc n =
    let elapsed = now () -. t0 in
    if n > 0 && elapsed *. float_of_int (n + 1) /. float_of_int n > seconds then List.rev acc
    else go (pass () :: acc) (n + 1)
  in
  go [] 0

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* Everything the benchmark writes lives here, under the checkout. *)
let out_dir = ".perfbench"

(* ------------------------------------------------------------------ *)
(* Per-layer accumulators, filled by the traced run.                    *)

module Acc = struct
  let lock = Mutex.create ()
  let ooo = ref Cpu_stats.zero
  let crisp = ref Cpu_stats.zero
  let minor_words = ref 0.
  let traces = Hashtbl.create 64  (* (name, input, instrs) -> () *)
  let trace_count = ref 0
  let fdo_keys = Hashtbl.create 16
  let fdo_count = ref 0
  let sample_units = ref 0
  let sample_runs = ref 0
  let sample_measured = ref 0
  let sample_total = ref 0
  let sample_ci = ref 0.

  let locked f = Mutex.protect lock f

  let reset () =
    locked (fun () ->
        ooo := Cpu_stats.zero;
        crisp := Cpu_stats.zero;
        minor_words := 0.;
        Hashtbl.reset traces;
        trace_count := 0;
        Hashtbl.reset fdo_keys;
        fdo_count := 0;
        sample_units := 0;
        sample_runs := 0;
        sample_measured := 0;
        sample_total := 0;
        sample_ci := 0.)

  let cpu_run ~crisp:is_crisp ~minor stats =
    locked (fun () ->
        minor_words := !minor_words +. minor;
        if is_crisp then crisp := Cpu_stats.add !crisp stats
        else ooo := Cpu_stats.add !ooo stats)

  let trace key =
    locked (fun () ->
        incr trace_count;
        Hashtbl.replace traces key ())

  let fdo key =
    locked (fun () ->
        incr fdo_count;
        Hashtbl.replace fdo_keys (Digest.string (Marshal.to_string key [])) ())

  let sampled (r : Sampler.result) =
    locked (fun () ->
        incr sample_runs;
        sample_units := !sample_units + r.Sampler.config.Sample_config.units;
        sample_measured := !sample_measured + r.Sampler.measured_instrs;
        sample_total := !sample_total + r.Sampler.total_instrs;
        sample_ci := !sample_ci +. r.Sampler.cpi_ci95)
end

(* One timing run on the core, with its allocation counted: minor words
   are per domain in OCaml 5, so reading them around the call on the
   calling domain measures this run alone. *)
let cpu_run ~parent ~tag ?criticality cfg trace =
  let is_crisp = Option.is_some criticality in
  Span.record ~parent ~tag "Cpu_core.run" (fun _ ->
      let m0 = Gc.minor_words () in
      let stats = Cpu_core.run ?criticality cfg trace in
      Acc.cpu_run ~crisp:is_crisp ~minor:(Gc.minor_words () -. m0) stats;
      stats)

let traced_trace ~parent ~tag ~input ~instrs name =
  let w =
    Span.record ~parent ~tag "Catalog.make" (fun _ -> Catalog.make ~input ~instrs name)
  in
  let t = Span.record ~parent ~tag "Workload.trace" (fun _ -> Workload.trace w) in
  Acc.trace (name, input, instrs);
  t

(* ------------------------------------------------------------------ *)
(* One evaluation cell: a Runner.evaluate call, or its replay.          *)

type job = {
  name : string;
  cfg : Cpu_config.t;
  variant : Runner.variant;
  eval_instrs : int;
  train_instrs : int;
  tag : string;  (** cell id, carried by every span of the cell *)
}

let evaluate job =
  (Runner.evaluate ~cfg:job.cfg ~eval_instrs:job.eval_instrs ~train_instrs:job.train_instrs
     ~name:job.name job.variant)
    .Runner.stats

(* The same public calls, in the same order and with the same arguments,
   as [Runner.run_variant] makes, each under its own span.  The replay
   drift guard compares the result with [evaluate]. *)
let replay ~parent job =
  let tag = job.tag in
  Span.record ~parent ~tag "cell" @@ fun parent ->
  let eval_trace =
    traced_trace ~parent ~tag ~input:Workload.Ref ~instrs:job.eval_instrs job.name
  in
  match job.variant with
  | Runner.Ooo ->
    cpu_run ~parent ~tag (Cpu_config.with_policy Scheduler.Oldest_ready job.cfg) eval_trace
  | Runner.Crisp (thresholds, options) ->
    let mem_params = job.cfg.Cpu_config.mem in
    let tagging =
      Span.record ~parent ~tag "Fdo.analyze" @@ fun parent ->
      let train =
        traced_trace ~parent ~tag ~input:Workload.Train ~instrs:job.train_instrs job.name
      in
      let step name f = Span.record ~parent ~tag name (fun _ -> f ()) in
      let report = step "Profiler.profile" (fun () -> Profiler.profile ~mem_params train) in
      let classification =
        step "Classifier.classify" (fun () -> Classifier.classify report thresholds)
      in
      let deps = step "Deps.compute" (fun () -> Deps.compute train) in
      let tagging =
        step "Tagger.build" (fun () -> Tagger.build ~options train deps report classification)
      in
      Acc.fdo (job.name, job.train_instrs, thresholds, options, mem_params);
      tagging
    in
    cpu_run ~parent ~tag
      ~criticality:(Cpu_core.Static_tags (Tagger.is_critical tagging))
      (Cpu_config.with_policy Scheduler.Crisp job.cfg)
      eval_trace
  | Runner.Ibda _ -> invalid_arg "replay: IBDA cells are not part of any workload"

(* Fail loudly when a replayed cell and [Runner.evaluate] disagree: the
   per-layer figures would then describe a different program. *)
let drift_guard pairs =
  let drifted = List.filter (fun (_, replayed, evaluated) -> replayed <> evaluated) pairs in
  if drifted <> [] then begin
    List.iter
      (fun (tag, (r : Cpu_stats.t), (e : Cpu_stats.t)) ->
        Printf.eprintf "REPLAY DRIFT %s: replay %d cycles / %d retired, evaluate %d / %d\n"
          tag r.Cpu_stats.cycles r.Cpu_stats.retired e.Cpu_stats.cycles e.Cpu_stats.retired)
      drifted;
    Printf.eprintf
      "the replayed pipeline no longer matches Runner.evaluate on %d cell(s); \
       per-layer figures would describe a different program\n%!"
      (List.length drifted);
    exit 2
  end

(* Heap retained per dynamic instruction by one trace: every word
   reachable from the [Workload.trace] result (the program included),
   counted exactly rather than read off a noisy live-heap total. *)
let bytes_per_instr ~input ~instrs name =
  let t = Workload.trace (Catalog.make ~input ~instrs name) in
  let words = Obj.reachable_words (Obj.repr t) in
  float_of_int (words * (Sys.word_size / 8)) /. float_of_int (Array.length t.Executor.dyns)

(* ------------------------------------------------------------------ *)
(* Results.                                                             *)

type metric = {
  m_name : string;
  value : float;
  unit_ : string;
}

let m m_name unit_ value = { m_name; value; unit_ }

type result = {
  e2e : metric list;  (** the BENCHMARK.json end-to-end metrics *)
  shown : metric list;  (** the workload's own names for them, printed only *)
  layers : metric list;  (** traced run only *)
}

(* Per-layer figures derivable from the spans and accumulators; a layer
   the workload never calls reads 0. *)
let span_layers spans =
  let s = Span.by_name spans in
  let cpu_s = (s "Cpu_core.run").Span.self_s in
  let all = Cpu_stats.add !Acc.ooo !Acc.crisp in
  let ratio a b = if b = 0. then 0. else a /. b in
  let fi = float_of_int in
  let ipc (st : Cpu_stats.t) = ratio (fi st.Cpu_stats.retired) (fi st.Cpu_stats.cycles) in
  [ m "workloads.build_s" "s" (s "Catalog.make").Span.self_s;
    m "workloads.builds" "count" (fi (s "Catalog.make").Span.count);
    m "trace.exec_s" "s" (s "Workload.trace").Span.self_s;
    m "trace.execs" "count" (fi !Acc.trace_count);
    m "trace.unique_ratio" "ratio" (ratio (fi (Hashtbl.length Acc.traces)) (fi !Acc.trace_count));
    m "trace.deps_s" "s" (s "Deps.compute").Span.self_s;
    m "analysis.profile_s" "s" (s "Profiler.profile").Span.self_s;
    m "analysis.classify_s" "s" (s "Classifier.classify").Span.self_s;
    m "analysis.tag_s" "s" (s "Tagger.build").Span.self_s;
    m "analysis.tag_max_s" "s" (s "Tagger.build").Span.max_s;
    m "analysis.fdo_runs" "count" (fi !Acc.fdo_count);
    m "analysis.fdo_unique_ratio" "ratio"
      (ratio (fi (Hashtbl.length Acc.fdo_keys)) (fi !Acc.fdo_count));
    m "cpu.run_s" "s" cpu_s;
    m "cpu.ns_per_instr" "ns" (ratio (cpu_s *. 1e9) (fi all.Cpu_stats.retired));
    m "cpu.ns_per_cycle" "ns" (ratio (cpu_s *. 1e9) (fi all.Cpu_stats.cycles));
    m "cpu.minor_words_per_cycle" "words" (ratio !Acc.minor_words (fi all.Cpu_stats.cycles));
    m "cpu.ipc_ooo" "instr/cycle" (ipc !Acc.ooo);
    m "cpu.ipc_crisp" "instr/cycle" (ipc !Acc.crisp);
    m "cpu.critical_frac" "ratio"
      (ratio (fi !Acc.crisp.Cpu_stats.critical_retired) (fi !Acc.crisp.Cpu_stats.retired));
    m "cpu.avg_mlp" "misses" (if all.Cpu_stats.mlp_cycles = 0 then 0. else Cpu_stats.avg_mlp all);
    m "cpu.dram_stall_frac" "ratio"
      (ratio (fi all.Cpu_stats.head_stalls.Cpu_stats.dram_load) (fi all.Cpu_stats.cycles));
    m "mem.llc_mpki" "1/kinstr" (if all.Cpu_stats.retired = 0 then 0. else Cpu_stats.mpki_llc all);
    m "branch.mispredicts_pki" "1/kinstr"
      (if all.Cpu_stats.retired = 0 then 0. else Cpu_stats.mispredicts_per_ki all);
    m "sample.run_s" "s" (s "Sampler.run").Span.self_s;
    m "sample.units" "count" (ratio (fi !Acc.sample_units) (fi !Acc.sample_runs));
    m "sample.measured_frac" "ratio" (ratio (fi !Acc.sample_measured) (fi !Acc.sample_total));
    m "sample.cpi_ci95" "cpi" (ratio !Acc.sample_ci (fi !Acc.sample_runs)) ]

(* Every per-layer metric, in BENCHMARK.json order; the workload supplies
   the ones the spans cannot (memo, pool, farm, memory probes). *)
let layer_names =
  [ "workloads.build_s"; "workloads.builds"; "trace.exec_s"; "trace.execs";
    "trace.unique_ratio"; "trace.deps_s"; "trace.bytes_per_instr"; "core.memo_live_mb";
    "core.memo_hits"; "core.memo_misses"; "analysis.profile_s"; "analysis.classify_s";
    "analysis.tag_s"; "analysis.tag_max_s"; "analysis.fdo_runs"; "analysis.fdo_unique_ratio";
    "cpu.run_s"; "cpu.ns_per_instr"; "cpu.ns_per_cycle"; "cpu.minor_words_per_cycle";
    "cpu.ipc_ooo"; "cpu.ipc_crisp"; "cpu.critical_frac"; "cpu.avg_mlp"; "cpu.dram_stall_frac";
    "mem.llc_mpki"; "branch.mispredicts_pki"; "sample.run_s"; "sample.units";
    "sample.measured_frac"; "sample.cpi_ci95"; "exec.busy_frac"; "exec.queue_wait_p50_ms";
    "exec.queue_wait_max_ms"; "exec.stolen"; "farm.connect_ms"; "farm.memo_hits";
    "farm.computed"; "farm.journal_cells"; "bench.trace_overhead_pct" ]

let layer_units =
  [ ("trace.bytes_per_instr", "B"); ("core.memo_live_mb", "MB"); ("core.memo_hits", "count");
    ("core.memo_misses", "count"); ("exec.busy_frac", "ratio"); ("exec.queue_wait_p50_ms", "ms");
    ("exec.queue_wait_max_ms", "ms"); ("exec.stolen", "count"); ("farm.connect_ms", "ms");
    ("farm.memo_hits", "count"); ("farm.computed", "count"); ("farm.journal_cells", "count");
    ("bench.trace_overhead_pct", "%") ]

(* The end-to-end metrics as reported: times divided by the host factor
   and rates multiplied by it (see [Probe]); memory is left as read. *)
let normalise ~factor metrics =
  List.map
    (fun x ->
      match x.unit_ with
      | "s" | "ms" -> { x with value = x.value /. factor }
      | "1/s" -> { x with value = x.value *. factor }
      | _ -> x)
    metrics

let layers ~spans extra =
  let derived = span_layers spans in
  List.map
    (fun name ->
      match List.find_opt (fun x -> x.m_name = name) (extra @ derived) with
      | Some x -> x
      | None -> m name (List.assoc name layer_units) 0.)
    layer_names

(* Tracing overhead: how much slower the traced phase ran than the
   untraced one, on the workload's throughput. *)
let overhead_pct ~untraced ~traced = ((untraced /. traced) -. 1.) *. 100.

let write_spans ~workload ~seed =
  mkdir_p out_dir;
  let file = Filename.concat out_dir (Printf.sprintf "spans-%s-%d.json" workload seed) in
  let oc = open_out file in
  output_string oc (Obs_json.to_string (Span.to_chrome (Span.spans ())));
  close_out oc;
  file
