type variant =
  | Ooo
  | Crisp of Classifier.thresholds * Tagger.options
  | Ibda of Ibda.config

let crisp_default = Crisp (Classifier.default, Tagger.default_options)

type outcome = {
  stats : Cpu_stats.t;
  artifacts : Fdo.artifacts option;
}

(* Cached outcomes carry an integrity seal: when a fault plan is armed,
   [repr] holds the marshalled outcome as it passed the "memo.store"
   data site and [fingerprint] the digest of the bytes *before* that
   point, so an injected corruption is detected at lookup instead of
   leaking a silently-wrong figure.  When no plan is armed both fields
   are empty and the seal costs nothing. *)
type 'a sealed = {
  outcome : 'a;
  repr : string;
  fingerprint : string;
}

let cache : (string, outcome sealed) Exec.Memo.t = Exec.Memo.create ~size_hint:64 ()

let clear_cache () = Exec.Memo.clear cache

let cache_stats () = Exec.Memo.stats cache

let seal ~ident outcome =
  if not (Resil.Fault_plan.armed ()) then { outcome; repr = ""; fingerprint = "" }
  else
    let repr = Marshal.to_string outcome [ Marshal.Closures ] in
    let fingerprint = Digest.to_hex (Digest.string repr) in
    let repr = Resil.Fault_plan.mangle ~ident "memo.store" repr in
    { outcome; repr; fingerprint }

let unseal ~ident sealed =
  if sealed.fingerprint = "" then Some sealed.outcome
  else
    let repr = Resil.Fault_plan.mangle ~ident "memo.lookup" sealed.repr in
    if Digest.to_hex (Digest.string repr) = sealed.fingerprint then
      Some sealed.outcome
    else None

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
  | Ooo -> { stats = time cfg; artifacts = None }
  | Crisp (thresholds, options) ->
    let train_workload = Catalog.make ~input:Workload.Train ~instrs:train_instrs name in
    let artifacts =
      Fdo.analyze ~thresholds ~options ~mem_params:cfg.Cpu_config.mem train_workload
    in
    let stats =
      time ~criticality:(Fdo.criticality artifacts)
        (Cpu_config.with_policy Scheduler.Crisp cfg)
    in
    { stats; artifacts = Some artifacts }
  | Ibda ibda_cfg ->
    (* IBDA is hardware: it learns online while the evaluated input runs. *)
    let result = Ibda.analyze ~mem_params:cfg.Cpu_config.mem ibda_cfg eval_trace in
    let stats =
      time ~criticality:(Cpu_core.Dynamic_tags (Ibda.is_critical result))
        (Cpu_config.with_policy Scheduler.Crisp cfg)
    in
    { stats; artifacts = None }

let memoised ~key ~ident compute =
  let rec attempt budget =
    let sealed = Exec.Memo.find_or_run cache key compute in
    match unseal ~ident sealed with
    | Some outcome -> outcome
    | None ->
      Exec.Memo.remove cache key;
      Resil.Log.record
        (Resil.Log.Quarantined
           { ident;
             reason =
               "memoised outcome failed its integrity check; evicted and \
                recomputed" });
      if budget <= 0 then
        raise
          (Resil.Supervise.Quarantined_failure
             (Printf.sprintf
                "memo entry %s kept failing its integrity check after recomputation"
                ident))
      else attempt (budget - 1)
  in
  attempt 2

let evaluate ?(cfg = Cpu_config.skylake) ?(eval_instrs = 200_000)
    ?(train_instrs = 150_000) ?sample ~name variant =
  let key = cache_key ?sample ~cfg ~eval_instrs ~train_instrs ~name variant in
  (* The injection ident is per cache entry (name for substring
     selectors, key prefix for uniqueness), so Nth-hit triggers count
     each entry independently — deterministic under work stealing.
     Sampled entries carry a "/sampled" infix chaos selectors match on. *)
  let ident =
    Printf.sprintf "%s/%s%s" name
      (if sample = None then "" else "sampled/")
      (String.sub (Digest.to_hex key) 0 8)
  in
  let compute () =
    Resil.Fault_plan.hit ~ident "runner.run";
    seal ~ident (run_variant ?sample ~cfg ~eval_instrs ~train_instrs ~name variant)
  in
  memoised ~key ~ident compute

let traced ?(cfg = Cpu_config.skylake) ?(eval_instrs = 200_000)
    ?(train_instrs = 150_000) ?tracer ~name variant =
  (* Tracers hold closures and grow-on-write buffers, so a traced run is
     never memoised: the cache key must stay plain data, and a cached
     outcome could not replay its event stream anyway. *)
  let cfg = Cpu_config.with_obs true cfg in
  let tracer =
    match tracer with Some t -> t | None -> Obs_tracer.create ()
  in
  let outcome = run_variant ~tracer ~cfg ~eval_instrs ~train_instrs ~name variant in
  (outcome, tracer)

let speedup_over_ooo ?(cfg = Cpu_config.skylake) ?(eval_instrs = 200_000)
    ?(train_instrs = 150_000) ~name variant =
  let base = evaluate ~cfg ~eval_instrs ~train_instrs ~name Ooo in
  let v = evaluate ~cfg ~eval_instrs ~train_instrs ~name variant in
  Cpu_stats.ipc v.stats /. Cpu_stats.ipc base.stats
