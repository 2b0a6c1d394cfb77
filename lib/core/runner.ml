type variant =
  | Ooo
  | Crisp of Classifier.thresholds * Tagger.options
  | Ibda of Ibda.config

let crisp_default = Crisp (Classifier.default, Tagger.default_options)

type outcome = {
  stats : Cpu_stats.t;
  tagging : Tagger.t option;
}

(* Three memos, one per layer a cell pays for.  [cache] holds outcomes
   for the life of the process.  [fdo] holds one tag map per train input:
   every entry is the [Tagger.t] an outcome in [cache] already pins (only
   a [traced] run, which caches no outcome, leaves a tag map of its own).
   [traces] holds only the most recently built eval trace: grids submit
   their cells one app row at a time, so one trace serves a whole row. *)
let cache : (string, outcome) Exec.Memo.t = Exec.Memo.create ~size_hint:64 ()

let fdo : (string, Tagger.t) Exec.Memo.t = Exec.Memo.create ~size_hint:32 ()

type trace_memo = {
  mutex : Mutex.t;
  mutable last : ((string * int) * Executor.t) option;  (** (name, eval_instrs) *)
  building : (string * int, Executor.t Exec.Future.t) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable dedups : int;
  mutable evictions : int;
}

let traces =
  { mutex = Mutex.create ();
    last = None;
    building = Hashtbl.create 4;
    hits = 0;
    misses = 0;
    dedups = 0;
    evictions = 0 }

(* Drop the retained trace, counting it as an eviction.  Under [mutex]. *)
let drop_last () =
  if Option.is_some traces.last then begin
    traces.last <- None;
    traces.evictions <- traces.evictions + 1
  end

let clear_cache () =
  Exec.Memo.clear cache;
  Exec.Memo.clear fdo;
  Mutex.protect traces.mutex drop_last

let cache_stats () = Exec.Memo.stats cache

type layer_stats = {
  fdo : Exec.Memo.stats;
  eval_traces : Exec.Memo.stats;
}

let layer_stats () =
  let eval_traces =
    Mutex.protect traces.mutex (fun () ->
        { Exec.Memo.hits = traces.hits;
          misses = traces.misses;
          dedups = traces.dedups;
          evictions = traces.evictions;
          entries = (if Option.is_some traces.last then 1 else 0) })
  in
  { fdo = Exec.Memo.stats fdo; eval_traces }

(* Every component of a memo key must be plain data (no closures, no
   custom blocks) so that the structural digest is a sound key; see the
   invariant in runner.mli.  Marshal rejects functional values — turn
   that into a loud, actionable error instead of a cryptic
   [Invalid_argument]. *)
let plain_digest ~what ~name key =
  match Marshal.to_string key [] with
  | repr -> Digest.string repr
  | exception Invalid_argument _ ->
    invalid_arg
      (Printf.sprintf
         "Runner.%s: key for workload %S contains a closure or other \
          unmarshalable value; Runner.variant payloads must be plain data \
          (records of scalars/lists) so results can be memoised and shared \
          across domains"
         what name)

let cache_key ?sample ~cfg ~eval_instrs ~train_instrs ~name variant =
  (* A sampled key appends the literal "sampled" tag plus the canonical
     sample-config string, so it can never collide with the full-run key
     of the same (cfg, instrs, variant) coordinates. *)
  match sample with
  | None ->
    plain_digest ~what:"cache_key" ~name (cfg, eval_instrs, train_instrs, name, variant)
  | Some sample ->
    plain_digest ~what:"cache_key" ~name
      (cfg, eval_instrs, train_instrs, name, variant, "sampled",
       Sample_config.to_string sample)

(* Exactly what tagging reads.  [Cpu_config.with_window] leaves [mem]
   alone, so every RS/ROB window of one app shares one entry. *)
let fdo_key ~name ~train_instrs ~thresholds ~options ~mem =
  plain_digest ~what:"fdo_key" ~name (name, train_instrs, thresholds, options, mem)

(* The FDO pass of Section 5.1: profile and tag the Train input once.
   The train trace lives only inside the computation. *)
let train_tagging ~name ~train_instrs ~thresholds ~options ~mem =
  Exec.Memo.find_or_run fdo (fdo_key ~name ~train_instrs ~thresholds ~options ~mem)
    (fun () ->
      let train_trace =
        Workload.trace (Catalog.make ~input:Workload.Train ~instrs:train_instrs name)
      in
      Tagger.analyze ~thresholds ~options ~mem_params:mem train_trace)

(* The Ref trace of [name], from [traces] or built once however many
   callers ask for it while it is being built.  Every timing run only
   reads it. *)
let eval_trace ~name ~eval_instrs =
  let key = (name, eval_instrs) in
  Mutex.lock traces.mutex;
  match traces.last with
  | Some (k, trace) when k = key ->
    traces.hits <- traces.hits + 1;
    Mutex.unlock traces.mutex;
    trace
  | _ -> (
    match Hashtbl.find_opt traces.building key with
    | Some fut ->
      traces.dedups <- traces.dedups + 1;
      Mutex.unlock traces.mutex;
      Exec.Future.await fut
    | None -> (
      traces.misses <- traces.misses + 1;
      let fut = Exec.Future.create () in
      Hashtbl.replace traces.building key fut;
      Mutex.unlock traces.mutex;
      match Workload.trace (Catalog.make ~input:Workload.Ref ~instrs:eval_instrs name) with
      | trace ->
        Mutex.protect traces.mutex (fun () ->
            Hashtbl.remove traces.building key;
            drop_last ();
            traces.last <- Some (key, trace));
        Exec.Future.fulfill fut trace;
        trace
      | exception exn ->
        let bt = Printexc.get_raw_backtrace () in
        Mutex.protect traces.mutex (fun () -> Hashtbl.remove traces.building key);
        Exec.Future.fail fut exn bt;
        Printexc.raise_with_backtrace exn bt))

let run_variant ?tracer ?sample ~cfg ~eval_instrs ~train_instrs ~name variant =
  let eval_trace = eval_trace ~name ~eval_instrs in
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
    let tagging =
      train_tagging ~name ~train_instrs ~thresholds ~options ~mem:cfg.Cpu_config.mem
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
