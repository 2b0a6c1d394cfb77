type variant =
  | Ooo
  | Crisp of Classifier.thresholds * Tagger.options
  | Ibda of Ibda.config

let crisp_default = Crisp (Classifier.default, Tagger.default_options)

type outcome = {
  stats : Cpu_stats.t;
  tagging : Tagger.t option;
}

let cache : (string, outcome) Exec.Memo.t = Exec.Memo.create ~size_hint:64 ()

let clear_cache () = Exec.Memo.clear cache

let cache_stats () = Exec.Memo.stats cache

let cache_key ?sample ~cfg ~eval_instrs ~train_instrs ~name variant =
  (* Every component must be plain data (no closures, no custom blocks) so
     that the structural digest is a sound key; see the invariant in
     runner.mli.  Marshal rejects functional values — turn that into a
     loud, actionable error instead of a cryptic [Invalid_argument].

     A sampled key appends the literal "sampled" tag plus the canonical
     sample-config string, so it can never collide with the full-run key
     of the same (cfg, instrs, variant) coordinates. *)
  let repr () =
    match sample with
    | None -> Marshal.to_string (cfg, eval_instrs, train_instrs, name, variant) []
    | Some sample ->
      Marshal.to_string
        (cfg, eval_instrs, train_instrs, name, variant, "sampled",
         Sample_config.to_string sample)
        []
  in
  match repr () with
  | repr -> Digest.string repr
  | exception Invalid_argument _ ->
    invalid_arg
      (Printf.sprintf
         "Runner.cache_key: variant for workload %S contains a closure or \
          other unmarshalable value; Runner.variant payloads must be plain \
          data (records of scalars/lists) so results can be memoised and \
          shared across domains"
         name)

let run_variant ?tracer ?sample ~cfg ~eval_instrs ~train_instrs ~name variant =
  let eval_workload = Catalog.make ~input:Workload.Ref ~instrs:eval_instrs name in
  let eval_trace = Workload.trace eval_workload in
  (* The timing step is the only part sampling replaces: profiling/FDO
     and IBDA's online learning stay full-fidelity. *)
  let time ?criticality cfg =
    match sample with
    | None -> Cpu_core.run ?criticality ?tracer cfg eval_trace
    | Some sample -> (Sampler.run ?criticality ~sample cfg eval_trace).Sampler.stats
  in
  match variant with
  | Ooo -> { stats = time cfg; tagging = None }
  | Crisp (thresholds, options) ->
    let train_trace =
      Workload.trace (Catalog.make ~input:Workload.Train ~instrs:train_instrs name)
    in
    let tagging =
      Tagger.analyze ~thresholds ~options ~mem_params:cfg.Cpu_config.mem train_trace
    in
    let stats =
      time ~criticality:(Cpu_core.Static_tags (Tagger.is_critical tagging))
        (Cpu_config.with_policy Scheduler.Crisp cfg)
    in
    { stats; tagging = Some tagging }
  | Ibda ibda_cfg ->
    (* IBDA is hardware: it learns online while the evaluated input runs. *)
    let result = Ibda.analyze ~mem_params:cfg.Cpu_config.mem ibda_cfg eval_trace in
    let stats =
      time ~criticality:(Cpu_core.Dynamic_tags (Ibda.is_critical result))
        (Cpu_config.with_policy Scheduler.Crisp cfg)
    in
    { stats; tagging = None }

let evaluate ?(cfg = Cpu_config.skylake) ?(eval_instrs = 200_000)
    ?(train_instrs = 150_000) ?sample ~name variant =
  let key = cache_key ?sample ~cfg ~eval_instrs ~train_instrs ~name variant in
  (* The injection ident is per cache entry (name for substring
     selectors, key prefix for uniqueness), so Nth-hit triggers count
     each entry independently — deterministic whatever the pool's order.
     Sampled entries carry a "/sampled" infix chaos selectors match on. *)
  let ident =
    Printf.sprintf "%s/%s%s" name
      (if sample = None then "" else "sampled/")
      (String.sub (Digest.to_hex key) 0 8)
  in
  let compute () =
    Resil.Fault_plan.hit ~ident "runner.run";
    run_variant ?sample ~cfg ~eval_instrs ~train_instrs ~name variant
  in
  Exec.Memo.find_or_run cache key compute

let traced ?(cfg = Cpu_config.skylake) ?(eval_instrs = 200_000)
    ?(train_instrs = 150_000) ?tracer ~name variant =
  (* Tracers hold closures and grow-on-write buffers, so a traced run is
     never memoised: the cache key must stay plain data, and a cached
     outcome could not replay its event stream anyway. *)
  let tracer =
    match tracer with Some t -> t | None -> Obs_tracer.create ()
  in
  let outcome = run_variant ~tracer ~cfg ~eval_instrs ~train_instrs ~name variant in
  (outcome, tracer)
