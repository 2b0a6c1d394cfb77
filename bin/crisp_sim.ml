(* crisp_sim: command-line front end for the CRISP reproduction.

   Subcommands:
     simulate    run one workload on the cycle-level core
     trace       run one workload with the observability layer and export events
     profile     print the software profiling report for a workload
     slices      print the criticality tagging for a workload
     experiments regenerate paper tables/figures
     chaos       deterministic fault-injection harness over one figure
     check       static validation battery
     list        list the workload catalog
     serve       the persistent simulation-farm daemon
     client      run figure grids against a `serve' daemon
     farm-chaos  wire-level fault-injection self-check of the farm

   Both chaos harnesses read one fault grammar, Resil.Fault_plan's
   SITE:ACTION[@SUBSTR][#N|+N]; chaos accepts the compute sites and
   farm-chaos the wire sites (wire.up, wire.down).

   Exit codes: 0 success (for serve: clean shutdown on a signal or a
   client `shutdown' request); 1 a check failed or the run degraded
   (some cells timed out / crashed / were quarantined — see the stderr
   summary); 2 usage error, startup failure (serve: socket in use) or
   internal failure. *)

open Cmdliner

let workload_arg =
  let doc = "Workload name (see the `list' subcommand)." in
  Arg.(value & opt string "pointer_chase" & info [ "w"; "workload" ] ~docv:"NAME" ~doc)

(* Validate names up front: `Catalog.make` raises [Not_found] deep inside
   a run, which would surface as an opaque internal error. *)
let require_workload name =
  if not (List.mem name Catalog.names) then begin
    Printf.eprintf
      "crisp_sim: unknown workload %S (run `crisp_sim list' for the catalog)\n"
      name;
    exit 2
  end

let instrs_arg =
  let doc = "Dynamic micro-ops to simulate." in
  Arg.(value & opt int 100_000 & info [ "n"; "instrs" ] ~docv:"N" ~doc)

let train_arg =
  let doc = "Dynamic micro-ops profiled on the train input." in
  Arg.(value & opt int 80_000 & info [ "train-instrs" ] ~docv:"N" ~doc)

let sched_arg =
  let doc =
    "Scheduler variant, named as in the figure grids: ooo, crisp, crisp-load, \
     crisp-branch, ibda-1k, ibda-8k, ibda-64k or ibda-inf; or random (the \
     OOO variant under random-ready select)."
  in
  Arg.(value & opt string "crisp" & info [ "s"; "scheduler" ] ~docv:"SCHED" ~doc)

let rs_arg =
  let doc = "Reservation-station entries." in
  Arg.(value & opt int 96 & info [ "rs" ] ~docv:"N" ~doc)

let rob_arg =
  let doc = "Reorder-buffer entries." in
  Arg.(value & opt int 224 & info [ "rob" ] ~docv:"N" ~doc)

let threshold_arg =
  let doc =
    "Miss-contribution threshold T for delinquent-load selection (CRISP \
     variants only; default: the classifier's)."
  in
  let none = Classifier.default.Classifier.miss_contribution_min in
  Arg.(value & opt (some' ~none float) None & info [ "t"; "threshold" ] ~docv:"T" ~doc)

let base_config ~rs ~rob = Cpu_config.with_window ~rs ~rob Cpu_config.skylake

(* Resolve [-s] the way a grid column resolves: one scheduler
   vocabulary, with [-t] a column threshold.  [random] is the one name
   the grids do not know: the OOO variant under Random_ready select. *)
let resolve_scheduler sched threshold cfg =
  let random = sched = "random" in
  let column =
    { Grid.label = sched;
      variant = (if random then "ooo" else sched);
      threshold;
      window = None }
  in
  match Grid.variant_of_column column with
  | Ok v ->
    (v, if random then Cpu_config.with_policy Scheduler.Random_ready cfg else cfg)
  | Error msg ->
    Printf.eprintf "crisp_sim: -s %s: %s\n" sched msg;
    exit 2

let simulate workload instrs train_instrs sched rs rob threshold =
  require_workload workload;
  let base_cfg = base_config ~rs ~rob in
  let variant, cfg = resolve_scheduler sched threshold base_cfg in
  let outcome =
    Runner.evaluate ~cfg ~eval_instrs:instrs ~train_instrs ~name:workload variant
  in
  Printf.printf "%s on %s (%d micro-ops):\n" sched workload instrs;
  Format.printf "%a" Cpu_stats.pp_summary outcome.Runner.stats;
  (match outcome.Runner.tagging with
  | Some t ->
    Printf.printf "tagging: %d static pcs, %.1f%% of the dynamic stream\n"
      t.Tagger.static_count (100. *. t.Tagger.dynamic_ratio)
  | None -> ());
  if sched <> "ooo" then begin
    (* The baseline is OOO under oldest-ready select, also for [-s random]. *)
    let base =
      Runner.evaluate ~cfg:base_cfg ~eval_instrs:instrs ~train_instrs ~name:workload
        Runner.Ooo
    in
    Printf.printf "speedup over OOO: %+.1f%%\n"
      (100.
      *. ((Cpu_stats.ipc outcome.Runner.stats /. Cpu_stats.ipc base.Runner.stats) -. 1.))
  end

let trace_output_arg =
  let doc = "Output file ($(docv) = - writes to stdout)." in
  Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let trace_format_arg =
  let doc =
    "Export format: $(b,chrome) (chrome://tracing / Perfetto JSON) or \
     $(b,jsonl) (one JSON object per retained ring event)."
  in
  Arg.(value & opt string "chrome" & info [ "f"; "format" ] ~docv:"FMT" ~doc)

let trace workload instrs train_instrs sched rs rob threshold output format =
  require_workload workload;
  let variant, cfg = resolve_scheduler sched threshold (base_config ~rs ~rob) in
  let tracer = Obs_tracer.create () in
  let outcome, tracer =
    Runner.traced ~cfg ~eval_instrs:instrs ~train_instrs ~tracer ~name:workload
      variant
  in
  let write_to f =
    if output = "-" then f stdout
    else begin
      let oc = open_out_bin output in
      Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> f oc)
    end
  in
  let export =
    match format with
    | "chrome" -> Obs_export.chrome_trace
    | "jsonl" -> Obs_export.jsonl
    | other ->
      Printf.eprintf "unknown format %S (expected chrome or jsonl)\n" other;
      exit 2
  in
  let buf = Buffer.create 65_536 in
  export buf tracer;
  write_to (fun oc -> Buffer.output_buffer oc buf);
  Printf.eprintf "%s on %s (%d micro-ops):\n" sched workload instrs;
  Format.eprintf "%a" Cpu_stats.pp_summary outcome.Runner.stats;
  let c = Obs_tracer.counter tracer in
  Printf.eprintf
    "events: %d recorded, %d in window, %d dropped\n\
     stages: fetch %d  dispatch %d  select %d (%d PRIO overrides)  issue %d  \
     retire %d (%d critical)\n\
     memory: %d L1D->LLC  %d L1D->DRAM  %d L1I misses  %d prefetches  %d MSHR \
     retries\n"
    (c "events_recorded")
    (Obs_ring.length (Obs_tracer.ring tracer))
    (c "events_dropped") (c "fetch") (c "dispatch") (c "select")
    (c "prio_override") (c "issue") (c "retire") (c "retire_critical")
    (c "l1d_miss_llc") (c "l1d_miss_mem") (c "l1i_miss") (c "prefetch")
    (c "mshr_retry")

let profile workload instrs =
  require_workload workload;
  let w = Catalog.make ~input:Workload.Train ~instrs workload in
  let trace = Workload.trace w in
  let r = Profiler.profile trace in
  Printf.printf "%s (train input, %d micro-ops):\n" workload r.Profiler.total_instrs;
  Printf.printf "  loads %d  LLC misses %d  branches %d  mispredicts %d\n"
    r.Profiler.total_loads r.Profiler.total_llc_misses r.Profiler.total_branches
    r.Profiler.total_mispredicts;
  let loads =
    Hashtbl.fold (fun pc e acc -> (pc, e) :: acc) r.Profiler.loads []
    |> List.sort (fun (_, a) (_, b) ->
           compare b.Profiler.llc_misses a.Profiler.llc_misses)
  in
  Printf.printf "  top loads by LLC misses:\n";
  List.iteri
    (fun i (pc, (e : Profiler.load_stats)) ->
      if i < 10 && e.Profiler.llc_misses > 0 then
        Printf.printf "    pc %4d: execs %6d  miss%% %5.1f  stride %4.2f  mlp %4.1f\n" pc
          e.Profiler.execs
          (100. *. Profiler.miss_ratio e)
          (Profiler.stride_ratio e) (Profiler.avg_mlp e))
    loads;
  let branches =
    Hashtbl.fold (fun pc e acc -> (pc, e) :: acc) r.Profiler.branch_table []
    |> List.sort (fun (_, a) (_, b) ->
           compare b.Profiler.b_mispredicts a.Profiler.b_mispredicts)
  in
  Printf.printf "  top branches by mispredictions:\n";
  List.iteri
    (fun i (pc, (e : Profiler.branch_stats)) ->
      if i < 5 && e.Profiler.b_mispredicts > 0 then
        Printf.printf "    pc %4d: execs %6d  mispredict%% %5.1f\n" pc e.Profiler.b_execs
          (100. *. Profiler.mispredict_ratio e))
    branches

let slices workload instrs threshold =
  require_workload workload;
  let w = Catalog.make ~input:Workload.Train ~instrs workload in
  let thresholds = Option.map (fun t -> { Classifier.miss_contribution_min = t }) threshold in
  let t = Tagger.analyze ?thresholds (Workload.trace w) in
  Printf.printf "%s: %d slices, %d static critical pcs, %.1f%% dynamic ratio\n" workload
    (List.length t.Tagger.slices) t.Tagger.static_count
    (100. *. t.Tagger.dynamic_ratio);
  List.iter
    (fun (s : Tagger.slice_info) ->
      Printf.printf "  %s slice @ pc %d: %d static, %.1f dynamic avg, contribution %d%s\n"
        (match s.Tagger.kind with
         | `Load -> "load  "
         | `Branch -> "branch"
         | `Long_op -> "longop")
        s.Tagger.root_pc s.Tagger.static_size s.Tagger.avg_dynamic_length
        s.Tagger.contribution
        (if s.Tagger.dropped then "  [dropped]" else ""))
    t.Tagger.slices

let all_arg =
  let doc = "Check every workload in the catalog." in
  Arg.(value & flag & info [ "a"; "all" ] ~doc)

let scoreboard_arg =
  let doc =
    "Also run the timing simulation twice per scheduler policy (pipeline \
     scoreboard off, then on) and require no invariant violation and \
     bit-identical statistics."
  in
  Arg.(value & flag & info [ "scoreboard" ] ~doc)

let static_arg =
  let doc =
    "Also run the profile-free static criticality predictor twice (requiring \
     bit-identical output) and score it against the profiled CRISP tagger."
  in
  Arg.(value & flag & info [ "static" ] ~doc)

let check all workload instrs train_instrs with_scoreboard with_static =
  if not all then require_workload workload;
  let reports =
    if all then
      Check_runner.check_all ~instrs ~train_instrs ~scoreboard:with_scoreboard
        ~static:with_static ()
    else
      [ Check_runner.check_workload ~instrs ~train_instrs
          ~scoreboard:with_scoreboard ~static:with_static workload ]
  in
  List.iter (fun r -> Format.printf "@[<v>%a@]@." Check_runner.pp_report r) reports;
  (* Under --all the shared figure-grid specs ride along: a daemon-served
     grid and a locally-run figure must agree on what is well-formed. *)
  let bad_grids =
    if all then
      List.filter_map
        (fun (spec : Grid.spec) ->
          match Grid.validate spec with
          | Ok () -> None
          | Error msg -> Some (spec.Grid.tag, msg))
        Grid.catalog
    else []
  in
  List.iter
    (fun (tag, msg) -> Printf.printf "grid %s: INVALID — %s\n" tag msg)
    bad_grids;
  if all then
    Printf.printf "grids: %d spec(s) validated, %d invalid\n"
      (List.length Grid.catalog) (List.length bad_grids);
  let failed = List.filter (fun r -> not (Check_runner.ok r)) reports in
  if failed = [] && bad_grids = [] then
    Printf.printf "check: %d workload(s) clean\n" (List.length reports)
  else begin
    Printf.printf "check: %d of %d workload(s) FAILED\n" (List.length failed)
      (List.length reports);
    exit 1
  end

let list_workloads () =
  List.iter
    (fun name ->
      let w = Catalog.make ~instrs:1 name in
      Printf.printf "%-14s %s\n" name w.Workload.description)
    Catalog.names

let figures_arg =
  let doc = "Figures to regenerate (default: all)." in
  Arg.(value & pos_all string [] & info [] ~docv:"FIGURE" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the simulation pool (0 = one per recommended core). \
     With $(docv) = 1 the pool is bypassed and every cell runs sequentially \
     on the calling thread; any other value fans the (workload x variant) \
     cells out to a pool of worker domains that take them in FIFO order.  \
     Figures are byte-identical for every value."
  in
  Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* Run [f] on the pool [--jobs] asks for; tear it down afterwards so an
   exception never leaks worker domains. *)
let with_jobs jobs f =
  let pool = Exec.Pool.of_jobs jobs in
  Fun.protect (fun () -> f pool) ~finally:(fun () -> Exec.Pool.shutdown pool)

let validate_figures figures =
  let known = List.map fst Experiments.figures in
  List.iter
    (fun fig ->
      if not (List.mem fig known) then begin
        Printf.eprintf "crisp_sim: unknown figure %S (expected one of: %s)\n" fig
          (String.concat ", " known);
        exit 2
      end)
    figures

let policy_of ~deadline ~retries ~seed = { Resil.Supervise.deadline; retries; seed }

let sample_arg =
  let doc =
    "Run Gain cells as sampled (interval-CPI) simulations instead of \
     full-fidelity runs: functional fast-forward between short detailed \
     windows, reported as a confidence-bounded estimate.  $(docv) is a \
     comma-separated k=v list over $(b,units) (measured intervals), \
     $(b,unit) (instructions per interval) and $(b,warmup) (warm-up \
     instructions before each interval).  $(docv) = \
     $(b,default) uses units=30,unit=1000,warmup=2000.  Sampled cells \
     are memoised and journalled under their own keys, never mixed \
     with full-fidelity results."
  in
  Arg.(value & opt (some string) None & info [ "sample" ] ~docv:"CONFIG" ~doc)

let parse_sample = function
  | None -> None
  | Some "default" -> Some Sample_config.default
  | Some spec -> (
    match Sample_config.of_string spec with
    | Ok s -> Some s
    | Error msg ->
      Printf.eprintf "crisp_sim: bad --sample config: %s\n" msg;
      exit 2)

(* Print the resilience summary (stderr, so figure text on stdout stays
   diffable) and turn degradation into exit 1. *)
let finish_resilient_run () =
  let _, _, degraded, quarantined, _ = Resil.Log.counts () in
  if Resil.Log.events () <> [] then Format.eprintf "%a@?" Resil.Log.pp_summary ();
  if degraded > 0 || quarantined > 0 then exit 1

let experiments figures instrs train_instrs jobs journal_path resume deadline
    retries seed sample_spec =
  validate_figures figures;
  if resume && journal_path = None then begin
    Printf.eprintf "crisp_sim: --resume requires --journal FILE\n";
    exit 2
  end;
  let sample = parse_sample sample_spec in
  with_jobs jobs @@ fun pool ->
  Resil.Log.clear ();
  let ctx =
    { Experiments.sizes = { Experiments.eval_instrs = instrs; train_instrs };
      pool;
      policy = policy_of ~deadline ~retries ~seed;
      journal = None;
      sample }
  in
  let journal =
    Option.map
      (fun path ->
        (* Without --resume an existing journal is a fresh start, not a
           source of stale cells. *)
        if (not resume) && Sys.file_exists path then Sys.remove path;
        Resil.Journal.load ~path ~signature:(Experiments.journal_signature ctx))
      journal_path
  in
  let ctx = { ctx with journal } in
  (match sample with
  | None -> ()
  | Some s ->
    Printf.eprintf "experiments: Gain cells sampled (%s)\n%!"
      (Sample_config.to_string s));
  (match figures with
  | [] -> Experiments.run_all ctx
  | figures -> List.iter (Experiments.run ctx) figures);
  finish_resilient_run ()

(* ------------------------------------------------------------------ *)
(* chaos: the self-checking fault-injection harness.  Three passes over
   one figure — clean reference, faulted + checkpointing, resume against
   the surviving journal (fault counters persist, so Nth-hit faults are
   already consumed and From-hit faults keep firing) — then a verdict:

     exit 0  output identical to the reference and nothing degraded
     exit 1  degradation happened and was fully reported (the contract)
     exit 2  SILENT DIVERGENCE: output changed with nothing reported —
             a resilience-property violation, or an internal error;
             also when the fault-free reference itself degraded. *)

(* The plan a chaos harness arms: its --fault specs parsed against the
   sites that harness exercises (a spec for any other site exits 2), or
   a seeded random plan when none is given. *)
let fault_plan ~sites ~random seed specs =
  match specs with
  | [] -> random seed
  | specs ->
    Resil.Fault_plan.make
      (List.map
         (fun spec ->
           match Resil.Fault_plan.parse_spec ~sites spec with
           | Ok trigger -> trigger
           | Error msg ->
             Printf.eprintf "crisp_sim: %s\n" msg;
             exit 2)
         specs)

let print_plan plan =
  List.iter
    (fun tr -> Printf.printf "  %s\n" (Resil.Fault_plan.trigger_to_string tr))
    (Resil.Fault_plan.triggers plan)

let chaos figure seed fault_specs instrs train_instrs jobs deadline retries =
  validate_figures [ figure ];
  let plan =
    fault_plan ~sites:Resil.Fault_plan.compute_sites
      ~random:(fun seed -> Resil.Fault_plan.random ~seed ())
      seed fault_specs
  in
  with_jobs jobs @@ fun pool ->
  let ctx =
    { Experiments.default with
      Experiments.sizes = { Experiments.eval_instrs = instrs; train_instrs };
      pool;
      policy = policy_of ~deadline ~retries ~seed }
  in
  let jpath = Filename.temp_file "crisp_chaos" ".journal" in
  let signature =
    Printf.sprintf "crisp chaos %s eval=%d train=%d %s" figure instrs train_instrs
      Cell_store.payload_format
  in
  let pass ~journaled () =
    (* Each pass simulates a fresh process: cold memo, empty log.  Fault
       counters are NOT reset between the faulted and resumed passes.
       The journal is loaded after the log clear so load-time quarantine
       events (corrupt checkpoints) are counted against this pass. *)
    Runner.clear_cache ();
    Resil.Log.clear ();
    let journal =
      if journaled then Some (Resil.Journal.load ~path:jpath ~signature) else None
    in
    (* The unjournaled pass is the clean reference: it runs without the
       deadline, so a slow fault-free cell on a loaded machine cannot
       put a marker into the text the other passes are judged against. *)
    let policy =
      if journaled then ctx.policy
      else { ctx.policy with Resil.Supervise.deadline = None }
    in
    Resil.Capture.stdout (fun () ->
        Experiments.run { ctx with journal; policy } figure)
  in
  Printf.printf "chaos: figure %s, seed %d, %d worker(s), plan:\n" figure seed
    (Exec.Pool.parallelism pool);
  print_plan plan;
  let reference = pass ~journaled:false () in
  if Sys.file_exists jpath then Sys.remove jpath;
  (let _, _, degraded, quarantined, _ = Resil.Log.counts () in
   if degraded + quarantined > 0 then begin
     Printf.eprintf
       "chaos: the clean reference pass itself degraded (%d degraded, %d \
        quarantined) before any fault was armed; there is no reference to \
        judge the faulted passes against\n"
       degraded quarantined;
     exit 2
   end);
  Resil.Fault_plan.arm plan;
  let faulted = pass ~journaled:true () in
  let faults_b, retries_b, degraded_b, quarantined_b, _ = Resil.Log.counts () in
  let summary_b = Format.asprintf "%a" Resil.Log.pp_summary () in
  let resumed = pass ~journaled:true () in
  let faults_c, retries_c, degraded_c, quarantined_c, restored_c =
    Resil.Log.counts ()
  in
  let summary_c = Format.asprintf "%a" Resil.Log.pp_summary () in
  Resil.Fault_plan.disarm ();
  Runner.clear_cache ();
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ jpath; jpath ^ ".bad"; jpath ^ ".tmp" ];
  let describe tag out faults retries degraded quarantined restored summary =
    Printf.printf
      "%s: output %s (%d bytes); %d fault(s) fired, %d retry(ies), %d \
       degraded, %d quarantined, %d restored\n"
      tag
      (if out = reference then "identical to reference" else "DIVERGED")
      (String.length out) faults retries degraded quarantined restored;
    if summary <> "" then print_string summary
  in
  Printf.printf "pass 1 (clean reference): %d bytes of figure text\n"
    (String.length reference);
  describe "pass 2 (faulted, checkpointing)" faulted faults_b retries_b
    degraded_b quarantined_b 0 summary_b;
  describe "pass 3 (resumed)" resumed faults_c retries_c degraded_c
    quarantined_c restored_c summary_c;
  let disrupted = degraded_b + quarantined_b + degraded_c + quarantined_c in
  let silent out degraded quarantined =
    out <> reference && degraded + quarantined = 0
  in
  if silent faulted degraded_b quarantined_b
     || silent resumed degraded_c quarantined_c
  then begin
    Printf.eprintf
      "chaos: SILENT DIVERGENCE — figure output changed but no degradation \
       was reported; resilience property violated\n";
    exit 2
  end
  else if disrupted > 0 then begin
    Printf.eprintf
      "chaos: faults disrupted the run and every disruption was reported \
       (%d degraded, %d quarantined)\n"
      (degraded_b + degraded_c)
      (quarantined_b + quarantined_c);
    exit 1
  end
  else
    Printf.printf
      "chaos: clean — figure text byte-identical to the fault-free reference\n"

let simulate_cmd =
  let info = Cmd.info "simulate" ~doc:"Run one workload on the cycle-level core." in
  Cmd.v info
    Term.(
      const simulate $ workload_arg $ instrs_arg $ train_arg $ sched_arg $ rs_arg
      $ rob_arg $ threshold_arg)

let trace_cmd =
  let info =
    Cmd.info "trace"
      ~doc:
        "Run one workload with the observability layer enabled and export the \
         pipeline event stream (statistics go to stderr)."
  in
  Cmd.v info
    Term.(
      const trace $ workload_arg $ instrs_arg $ train_arg $ sched_arg $ rs_arg
      $ rob_arg $ threshold_arg $ trace_output_arg $ trace_format_arg)

let profile_cmd =
  let info = Cmd.info "profile" ~doc:"Print the software profiling report." in
  Cmd.v info Term.(const profile $ workload_arg $ instrs_arg)

let slices_cmd =
  let info = Cmd.info "slices" ~doc:"Print the criticality tagging and its slices." in
  Cmd.v info Term.(const slices $ workload_arg $ instrs_arg $ threshold_arg)

let journal_arg =
  let doc =
    "Checkpoint completed grid cells to $(docv), an append-only log of \
     checksummed lines written with one O_APPEND write per cell.  Without \
     $(b,--resume) an existing file is discarded."
  in
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)

let resume_arg =
  let doc =
    "Reuse valid checkpoints from $(b,--journal) and recompute only the \
     missing cells.  Stale or corrupt entries are quarantined to FILE.bad \
     and recomputed, never trusted."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

let deadline_arg =
  let doc =
    "Per-cell wall-clock deadline in seconds (measured from the moment the \
     cell starts on a worker).  A cell over deadline degrades to an error \
     marker; the run continues and exits 1."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECS" ~doc)

let retries_arg =
  let doc =
    "Retries per crashed cell (deterministic exponential backoff with \
     seeded jitter).  Timeouts are never retried."
  in
  Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc)

let seed_arg =
  let doc =
    "Seed for backoff jitter and, when no $(b,--fault) is given, the random \
     fault plan (chaos draws compute sites, farm-chaos draws wire.down)."
  in
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc)

let experiments_cmd =
  let info =
    Cmd.info "experiments"
      ~doc:
        "Regenerate paper tables and figures.  Every grid cell runs as a \
         supervised job; failing cells degrade to `--' markers and the run \
         exits 1 with a summary instead of crashing."
  in
  Cmd.v info
    Term.(
      const experiments $ figures_arg $ instrs_arg $ train_arg $ jobs_arg
      $ journal_arg $ resume_arg $ deadline_arg $ retries_arg $ seed_arg
      $ sample_arg)

let chaos_figure_arg =
  let doc = "Figure to run under fault injection." in
  Arg.(value & opt string "fig4" & info [ "figure" ] ~docv:"FIGURE" ~doc)

let fault_arg ~sites ~detail =
  let doc =
    Printf.sprintf
      "Inject a fault (repeatable): SITE:ACTION[@SUBSTR][#N|+N] with SITE one \
       of %s and ACTION one of crash, stall=SECS, corrupt, truncate; #N fires \
       on exactly the Nth hit, +N from the Nth on (default +1).  %s  Without \
       $(b,--fault) a seeded random plan is generated."
      (String.concat ", " sites) detail
  in
  Arg.(value & opt_all string [] & info [ "fault" ] ~docv:"SPEC" ~doc)

let chaos_instrs_arg =
  let doc = "Dynamic micro-ops per evaluation run (kept small: chaos runs the figure three times)." in
  Arg.(value & opt int 20_000 & info [ "n"; "instrs" ] ~docv:"N" ~doc)

let chaos_train_arg =
  let doc = "Dynamic micro-ops profiled on the train input." in
  Arg.(value & opt int 15_000 & info [ "train-instrs" ] ~docv:"N" ~doc)

let chaos_cmd =
  let info =
    Cmd.info "chaos"
      ~doc:
        "Self-checking fault injection: run a figure clean, faulted with \
         checkpointing, and resumed, then verify that the output is either \
         byte-identical to the clean reference or every divergence was \
         reported as degraded/quarantined.  Exit 0 clean, 1 reported \
         degradation, 2 silent divergence (property violation)."
  in
  Cmd.v info
    Term.(
      const chaos $ chaos_figure_arg $ seed_arg
      $ fault_arg ~sites:Resil.Fault_plan.compute_sites
          ~detail:"@SUBSTR restricts to cell idents containing SUBSTR."
      $ chaos_instrs_arg $ chaos_train_arg $ jobs_arg $ deadline_arg
      $ retries_arg)

let check_instrs_arg =
  let doc = "Dynamic micro-ops for the ref-input lint/scoreboard context." in
  Arg.(value & opt int 60_000 & info [ "n"; "instrs" ] ~docv:"N" ~doc)

let check_train_arg =
  let doc = "Dynamic micro-ops traced on the train input for slice checks." in
  Arg.(value & opt int 40_000 & info [ "train-instrs" ] ~docv:"N" ~doc)

let check_cmd =
  let info =
    Cmd.info "check"
      ~doc:
        "Run the static validation battery: program lint, independent slice \
         and tag-budget verification, (with $(b,--static)) the profile-free \
         criticality predictor scored against the profiled tagger, and (with \
         $(b,--scoreboard)) the pipeline-invariant oracle.  With $(b,--all) \
         the shared figure-grid specs are validated too."
  in
  Cmd.v info
    Term.(
      const check $ all_arg $ workload_arg $ check_instrs_arg $ check_train_arg
      $ scoreboard_arg $ static_arg)

let list_cmd =
  let info = Cmd.info "list" ~doc:"List the workload catalog." in
  Cmd.v info Term.(const list_workloads $ const ())

(* ------------------------------------------------------------------ *)
(* serve: the persistent simulation-farm daemon.  It listens on a
   Unix-domain socket for clients, decomposes their grid requests into
   canonical cells, dedups identical cells across all connected clients,
   shards them over a domain pool under supervision, and (with
   --journal-dir) checkpoints every completed cell so a killed daemon
   restarts warm.  Connections live under a hostile-traffic lifecycle:
   per-frame I/O deadlines, idle reaping, connection/request/queue
   budgets with structured Overloaded sheds, and graceful SIGTERM drain.
   Every limit flag defaults to [Farm_server.default_limits]. *)

let socket_arg =
  let doc =
    "Unix-domain socket of the farm daemon: $(b,serve) listens on it \
     (unlinking a stale file; do not point two live daemons at one path) \
     and $(b,client) connects to it."
  in
  let default = Filename.concat (Filename.get_temp_dir_name ()) "crisp_simd.sock" in
  Arg.(value & opt string default & info [ "socket" ] ~docv:"PATH" ~doc)

let journal_dir_arg =
  let doc =
    "Persist the farm's state under $(docv): a `cells' journal of every \
     completed cell value and a `server' journal holding the \
     clean_shutdown marker written at drain.  A restarted daemon serves \
     journalled cells without recomputing them.  Omitted = fully \
     in-memory."
  in
  Arg.(value & opt (some string) None & info [ "journal-dir" ] ~docv:"DIR" ~doc)

let verbose_arg =
  let doc = "Log every connection, spawn, journal hit and degradation to stderr." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

(* [Farm_server.limits] spells "no limit" as [None]; its flags spell it
   as 0. *)
let limit = Farm_server.default_limits
let or_zero = Option.value ~default:0
let or_zero_secs = Option.value ~default:0.
let positive v = if v <= 0. then None else Some v
let positive_int v = if v <= 0 then None else Some v

let io_timeout_arg =
  let doc =
    "Per-frame read/write deadline in seconds: a frame that does not \
     transfer completely within $(docv) evicts its connection (the \
     slowloris and dead-reader defence).  0 waits forever."
  in
  Arg.(value & opt float (or_zero_secs limit.io_timeout)
       & info [ "io-timeout" ] ~docv:"SECS" ~doc)

let idle_timeout_arg =
  let doc =
    "Reap a connection with no request in flight for $(docv) seconds.  \
     0 keeps idle connections forever."
  in
  Arg.(value & opt float (or_zero_secs limit.idle_timeout)
       & info [ "idle-timeout" ] ~docv:"SECS" ~doc)

let max_conns_arg =
  let doc =
    "Concurrent connection cap; excess connections are shed with a \
     structured Overloaded frame at accept time."
  in
  Arg.(value & opt int limit.max_connections & info [ "max-conns" ] ~docv:"N" ~doc)

let max_queued_arg =
  let doc =
    "Shed new grid requests while the simulation pool's queue is deeper \
     than $(docv).  0 admits regardless of queue depth."
  in
  Arg.(value & opt int (or_zero limit.max_queued) & info [ "max-queued" ] ~docv:"N" ~doc)

let retry_after_ms_arg =
  let doc = "Backoff hint (milliseconds) carried by Overloaded shed frames." in
  Arg.(value & opt int limit.retry_after_ms & info [ "retry-after-ms" ] ~docv:"MS" ~doc)

let sndbuf_arg =
  let doc =
    "SO_SNDBUF for accepted sockets, bytes — bounds per-connection kernel \
     memory and makes dead-reader eviction prompt.  0 keeps the kernel \
     default."
  in
  Arg.(value & opt int (or_zero limit.sndbuf) & info [ "sndbuf" ] ~docv:"BYTES" ~doc)

let serve socket jobs journal_dir deadline retries seed verbose io_timeout
    idle_timeout max_connections max_queued retry_after_ms sndbuf =
  let limits =
    { Farm_server.max_connections;
      max_queued = positive_int max_queued;
      io_timeout = positive io_timeout;
      idle_timeout = positive idle_timeout;
      sndbuf = positive_int sndbuf;
      retry_after_ms }
  in
  with_jobs jobs @@ fun pool ->
  let server =
    Farm_server.create
      { Farm_server.socket;
        pool;
        policy = policy_of ~deadline ~retries ~seed;
        journal_dir;
        verbose;
        limits }
  in
  (* SIGTERM/SIGINT start a graceful drain: the accept loop closes,
     in-flight grids finish streaming, idle connections get a Draining
     frame, client threads are joined, the socket file is removed and
     the clean shutdown is journalled. *)
  let request_stop _ = Farm_server.stop server in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
  match Farm_server.run server with
  | () -> ()
  | exception Unix.Unix_error (e, fn, arg) ->
    Printf.eprintf "crisp_sim: cannot serve on %s: %s (%s %s)\n" socket
      (Unix.error_message e) fn arg;
    exit 2

let serve_cmd =
  let info =
    Cmd.info "serve"
      ~doc:
        "Simulation-farm daemon: batches, shards, dedups and journals CRISP \
         grid work for concurrent $(b,client)s until SIGTERM, SIGINT or a \
         client shutdown request."
  in
  Cmd.v info
    Term.(
      const serve $ socket_arg $ jobs_arg $ journal_dir_arg $ deadline_arg
      $ retries_arg $ seed_arg $ verbose_arg $ io_timeout_arg $ idle_timeout_arg
      $ max_conns_arg $ max_queued_arg $ retry_after_ms_arg
      $ sndbuf_arg)

(* ------------------------------------------------------------------ *)
(* client: run figure grids against a `serve' daemon.  Figure text on
   stdout is byte-identical to `experiments' on the same grids — shared
   Grid specs, round-trip-precise floats on the wire, degraded cells as
   `--' — while farm accounting goes to stderr. *)

let find_grids tags =
  List.map
    (fun tag ->
      match Grid.find tag with
      | Some spec -> spec
      | None ->
        Printf.eprintf "crisp_sim: unknown grid %S (farm-servable grids: %s)\n" tag
          (String.concat ", " (List.map (fun (s : Grid.spec) -> s.Grid.tag) Grid.catalog));
        exit 2)
    tags

let client_grids_arg =
  let doc =
    "Grids to request (default: every farm-servable grid, in figure order)."
  in
  Arg.(value & pos_all string [] & info [] ~docv:"GRID" ~doc)

let client_ping_arg =
  let doc = "Just check that the daemon answers, then exit." in
  Arg.(value & flag & info [ "ping" ] ~doc)

let client_stats_arg =
  let doc = "Print the daemon's memo/pool/journal statistics, then exit." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let client_shutdown_arg =
  let doc = "Ask the daemon to shut down cleanly, then exit." in
  Arg.(value & flag & info [ "shutdown" ] ~doc)

let client_retries_arg =
  let doc =
    "Reconnect-and-resume attempts after a transport failure (mid-stream \
     disconnect, torn frame, daemon shed or drain).  The daemon dedups \
     cells by canonical key, so a retried grid only computes what the \
     lost connection interrupted.  0 fails on the first transport error."
  in
  Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc)

let client_connect_timeout_arg =
  let doc = "Seconds to wait for each connection attempt." in
  Arg.(value & opt float 10. & info [ "connect-timeout" ] ~docv:"SECS" ~doc)

let client_io_timeout_arg =
  let doc =
    "Per-frame transfer deadline in seconds (bounds how long one frame \
     may take on the wire, never how long the daemon computes).  0 waits \
     forever."
  in
  Arg.(value & opt float 0. & info [ "io-timeout" ] ~docv:"SECS" ~doc)

let print_farm_stats (s : Farm_protocol.farm_stats) =
  Printf.printf
    "memo: %d hits  %d misses  %d dedups  %d evictions  %d entries\n\
     pool: %d workers  %d queued  %d running  %d stolen\n\
     journal: %d cells   requests served: %d   sampled cells: %d\n"
    s.Farm_protocol.memo.Exec.Memo.hits s.Farm_protocol.memo.Exec.Memo.misses
    s.Farm_protocol.memo.Exec.Memo.dedups
    s.Farm_protocol.memo.Exec.Memo.evictions
    s.Farm_protocol.memo.Exec.Memo.entries s.Farm_protocol.pool.Exec.Pool.workers
    s.Farm_protocol.pool.Exec.Pool.queued s.Farm_protocol.pool.Exec.Pool.running
    s.Farm_protocol.pool.Exec.Pool.stolen s.Farm_protocol.journal_cells
    s.Farm_protocol.requests_served s.Farm_protocol.sampled_cells

let client grids instrs train_instrs socket do_ping do_stats do_shutdown
    retries connect_timeout io_timeout sample_spec =
  let io_timeout = positive io_timeout in
  let sample = parse_sample sample_spec in
  let specs = if grids = [] then Grid.catalog else find_grids grids in
  let with_conn f =
    let conn =
      try Farm_client.connect ~connect_timeout ?io_timeout ~socket ()
      with Farm_client.Disconnected msg ->
        Printf.eprintf "crisp_sim: %s\n" msg;
        exit 2
    in
    Fun.protect ~finally:(fun () -> Farm_client.close conn) (fun () -> f conn)
  in
  try
    if do_ping then
      with_conn (fun conn ->
          Farm_client.ping conn;
          Printf.printf "daemon at %s: alive\n" socket)
    else if do_stats then
      with_conn (fun conn -> print_farm_stats (Farm_client.stats conn))
    else if do_shutdown then
      with_conn (fun conn ->
          Farm_client.shutdown_daemon conn;
          Printf.printf "daemon at %s: shutting down\n" socket)
    else begin
      (* Each grid opens its own connection(s) through the retry loop;
         the daemon's cross-request dedup keeps repeated attempts free. *)
      let retry =
        { Farm_client.default_retry with
          Farm_client.attempts = retries + 1;
          connect_timeout;
          io_timeout }
      in
      let any_degraded = ref false in
      List.iter
        (fun (spec : Grid.spec) ->
          let r, attempts =
            Farm_client.run_grid_retrying ~socket ~retry ?sample ~spec
              ~eval_instrs:instrs ~train_instrs ()
          in
          Grid.render spec r.Farm_client.rows;
          let s = r.Farm_client.summary in
          Printf.eprintf
            "%s: %d cells — %d computed, %d deduplicated, %d from journal, \
             %d degraded%s\n"
            spec.Grid.tag s.Farm_protocol.cells s.Farm_protocol.computed
            s.Farm_protocol.memo_hits s.Farm_protocol.journal_hits
            s.Farm_protocol.degraded
            (if s.Farm_protocol.sample = "" then ""
             else " — sampled (" ^ s.Farm_protocol.sample ^ ")");
          if attempts > 1 then
            Printf.eprintf "%s: converged after %d attempts\n" spec.Grid.tag
              attempts;
          List.iter
            (fun (cell, reason) ->
              any_degraded := true;
              Printf.eprintf "  degraded %s: %s\n" cell reason)
            r.Farm_client.degraded)
        specs;
      if !any_degraded then exit 1
    end
  with
  | Farm_client.Farm_error msg ->
    Printf.eprintf "crisp_sim: farm error: %s\n" msg;
    exit 2
  | Farm_client.Disconnected msg ->
    Printf.eprintf "crisp_sim: connection failed: %s\n" msg;
    exit 2
  | Farm_client.Overloaded ms ->
    Printf.eprintf
      "crisp_sim: daemon overloaded (retry after %dms); use --retries to \
       reconnect automatically\n"
      ms;
    exit 2

let client_cmd =
  let info =
    Cmd.info "client"
      ~doc:
        "Run figure grids against a $(b,serve) simulation-farm daemon.  \
         Figure text (stdout) is byte-identical to the `experiments' \
         subcommand on the same grids; cells shared with other clients or \
         earlier requests are simulated only once, and the per-grid dedup \
         accounting is reported on stderr."
  in
  Cmd.v info
    Term.(
      const client $ client_grids_arg $ instrs_arg $ train_arg $ socket_arg
      $ client_ping_arg $ client_stats_arg $ client_shutdown_arg
      $ client_retries_arg $ client_connect_timeout_arg $ client_io_timeout_arg
      $ sample_arg)

(* ------------------------------------------------------------------ *)
(* farm-chaos: the wire-level self-check.  One in-process daemon, a
   clean reference pass connected directly, then a retrying client run
   through a Chaos_proxy armed with a seeded (or explicit) wire-fault
   plan.  The verdict mirrors the grid `chaos' contract:

     exit 0  figures byte-identical to the clean pass, zero cells
             recomputed (exactly-once across every retry), and at least
             one wire fault actually fired
     exit 1  the faults disrupted the run and every disruption was
             explicitly reported (retries exhausted, degraded cells)
     exit 2  SILENT DIVERGENCE (output changed, nothing reported), a
             vacuous plan (nothing fired), or an internal error *)

let chaos_tmpdir () =
  (* Short paths: two sockets live here and sun_path is ~107 bytes. *)
  let rec go i =
    let p =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "cschaos%d.%d" (Unix.getpid ()) i)
    in
    match Unix.mkdir p 0o700 with
    | () -> p
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> go (i + 1)
  in
  go 0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let farm_chaos_grids_arg =
  let doc = "Figure grids to converge on (default: fig8)." in
  Arg.(value & pos_all string [] & info [] ~docv:"GRID" ~doc)

let farm_chaos_instrs_arg =
  let doc = "Dynamic micro-ops per evaluation run (kept small: chaos runs every grid twice)." in
  Arg.(value & opt int 4000 & info [ "n"; "instrs" ] ~docv:"N" ~doc)

let farm_chaos_train_arg =
  let doc = "Dynamic micro-ops for the profiling (training) run." in
  Arg.(value & opt int 3000 & info [ "train-instrs" ] ~docv:"N" ~doc)

(* Client attempts per grid before farm-chaos gives up. *)
let farm_chaos_attempts = 8

let farm_chaos seed fault_specs grids instrs train_instrs jobs verbose =
  let specs = find_grids (if grids = [] then [ "fig8" ] else grids) in
  let plan =
    fault_plan ~sites:Resil.Fault_plan.wire_sites
      ~random:(fun seed -> Resil.Fault_plan.random_wire ~seed)
      seed fault_specs
  in
  Printf.printf "farm-chaos: seed %d, %d grid(s), plan:\n" seed (List.length specs);
  print_plan plan;
  let dir = chaos_tmpdir () in
  let daemon_socket = Filename.concat dir "d.sock" in
  let proxy_socket = Filename.concat dir "p.sock" in
  let pool = Exec.Pool.of_jobs jobs in
  let srv =
    Farm_server.create
      { Farm_server.socket = daemon_socket;
        pool;
        policy = Resil.Supervise.default_policy;
        journal_dir = Some (Filename.concat dir "journal");
        verbose;
        limits = Farm_server.default_limits }
  in
  let srv_thread = Thread.create Farm_server.run srv in
  let proxy = ref None in
  let cleanup () =
    (match !proxy with Some p -> Chaos_proxy.stop p | None -> ());
    Farm_server.stop srv;
    Thread.join srv_thread;
    Exec.Pool.shutdown pool;
    rm_rf dir
  in
  let finish code =
    cleanup ();
    exit code
  in
  let connect_ready socket =
    (* The in-process daemon binds asynchronously; wait for it. *)
    let rec go n =
      match Farm_client.connect ~connect_timeout:1. ~socket () with
      | c -> Farm_client.close c
      | exception Farm_client.Disconnected _ when n > 0 ->
        Thread.delay 0.02;
        go (n - 1)
    in
    go 250
  in
  try
    connect_ready daemon_socket;
    (* Pass 1: clean reference, connected directly to the daemon. *)
    let clean =
      Resil.Capture.stdout (fun () ->
          List.iter
            (fun (spec : Grid.spec) ->
              let c = Farm_client.connect ~socket:daemon_socket () in
              Fun.protect
                ~finally:(fun () -> Farm_client.close c)
                (fun () ->
                  let r =
                    Farm_client.run_grid c ~spec ~eval_instrs:instrs
                      ~train_instrs ()
                  in
                  Grid.render spec r.Farm_client.rows))
            specs)
    in
    let misses_before =
      (Farm_server.stats srv).Farm_protocol.memo.Exec.Memo.misses
    in
    (* Pass 2: the same grids through the fault-injecting proxy, with a
       retrying client.  Every cell is already memoized (and journalled)
       server-side, so convergence must recompute nothing. *)
    let p = Chaos_proxy.start ~listen:proxy_socket ~upstream:daemon_socket ~plan in
    proxy := Some p;
    let retry =
      { Farm_client.default_retry with
        Farm_client.attempts = farm_chaos_attempts;
        seed;
        connect_timeout = 5. }
    in
    let total_attempts = ref 0 in
    let outcome =
      match
        Resil.Capture.stdout (fun () ->
            List.iter
              (fun (spec : Grid.spec) ->
                let r, used =
                  Farm_client.run_grid_retrying ~socket:proxy_socket ~retry
                    ~spec ~eval_instrs:instrs ~train_instrs ()
                in
                total_attempts := !total_attempts + used;
                Grid.render spec r.Farm_client.rows)
              specs)
      with
      | chaotic -> Ok chaotic
      | exception Farm_client.Farm_error msg -> Error msg
    in
    let fired = Chaos_proxy.fired p in
    Printf.printf "farm-chaos: %d wire fault(s) fired:\n" (List.length fired);
    List.iter
      (fun (site, n, action) ->
        Printf.printf "  %s frame %d: %s\n" site n
          (Resil.Fault_plan.action_to_string action))
      fired;
    let misses_after =
      (Farm_server.stats srv).Farm_protocol.memo.Exec.Memo.misses
    in
    let recomputed = misses_after - misses_before in
    match outcome with
    | Error msg ->
      (* The client gave up, loudly: a reported disruption, not a lie. *)
      Printf.printf
        "farm-chaos: client gave up and said so: %s\n\
         farm-chaos: faults disrupted the run and the disruption was \
         reported (exit 1)\n"
        msg;
      finish 1
    | Ok chaotic ->
      Printf.printf
        "farm-chaos: converged in %d attempt(s) across %d grid(s), %d \
         cell(s) recomputed\n"
        !total_attempts (List.length specs) recomputed;
      if chaotic <> clean then begin
        Printf.printf
          "farm-chaos: SILENT DIVERGENCE — figures differ from the clean \
           pass with no reported failure (exit 2)\n";
        print_string "--- clean ---\n";
        print_string clean;
        print_string "--- chaotic ---\n";
        print_string chaotic;
        finish 2
      end
      else if recomputed <> 0 then begin
        Printf.printf
          "farm-chaos: EXACTLY-ONCE VIOLATION — %d cell(s) recomputed \
           during retries (exit 2)\n"
          recomputed;
        finish 2
      end
      else if fired = [] then begin
        Printf.printf
          "farm-chaos: VACUOUS RUN — no wire fault fired, nothing was \
           verified (exit 2)\n";
        finish 2
      end
      else begin
        Printf.printf
          "farm-chaos: clean — figures byte-identical through every wire \
           fault, zero recomputation (exit 0)\n";
        finish 0
      end
  with exn ->
    Printf.eprintf "crisp_sim: farm-chaos internal error: %s\n"
      (Printexc.to_string exn);
    finish 2

let farm_chaos_cmd =
  let info =
    Cmd.info "farm-chaos"
      ~doc:
        "Wire-level chaos self-check: run a retrying client through a \
         seeded fault-injecting proxy (stalled, torn and corrupt frames, \
         dropped connections) and assert the rendered figures are \
         byte-identical to a clean run with zero cells recomputed."
  in
  Cmd.v info
    Term.(
      const farm_chaos $ seed_arg
      $ fault_arg ~sites:Resil.Fault_plan.wire_sites
          ~detail:
            "A hit is one frame in that direction, counted globally across \
             reconnects; frames carry no ident, so @SUBSTR is rejected."
      $ farm_chaos_grids_arg $ farm_chaos_instrs_arg $ farm_chaos_train_arg
      $ jobs_arg $ verbose_arg)

let () =
  let info =
    Cmd.info "crisp_sim" ~version:"1.0.0"
      ~doc:"CRISP critical-slice prefetching: simulator and analysis tools"
  in
  let group =
    Cmd.group info
      [ simulate_cmd; trace_cmd; profile_cmd; slices_cmd; experiments_cmd;
        chaos_cmd; check_cmd; list_cmd; serve_cmd; client_cmd; farm_chaos_cmd ]
  in
  (* ~catch:false so an uncaught exception reaches our handler: one line
     on stderr and exit 2 (internal error), never a bare backtrace.
     ~term_err:2 folds cmdliner's own CLI errors (unknown flags, bad
     values) onto the same exit code, keeping 1 reserved for "the run
     degraded / a check failed". *)
  match Cmd.eval ~catch:false ~term_err:2 group with
  | code -> exit code
  | exception exn ->
    Printf.eprintf "crisp_sim: internal error: %s\n" (Printexc.to_string exn);
    exit 2
