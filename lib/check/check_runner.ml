type slice_report = {
  root_pc : int;
  kind : [ `Load | `Branch ];
  follow_memory : bool;
  violations : Slice_check.violation list;
}

type scoreboard_report = {
  policy_name : string;
  violation : string option;
  stats_match : bool;
}

type static_report = {
  candidates : int;
  comparison : Static_crit.comparison;
  deterministic : bool;
}

type report = {
  workload : string;
  lint : Lint.diag list;
  acknowledged : Lint.diag list;
  roots : int;
  slices : slice_report list;
  tagging : Slice_check.violation list;
  scoreboard : scoreboard_report list;
  static : static_report option;
}

(* Findings the analyzer is right about but the kernel sources keep.
   The catalog's dynamic traces are frozen statistical baselines
   (test/goldens): deleting gcc's never-executed dispatch fallback or
   xhpcg's dead row-pointer copy would shift every later pc, perturb
   branch-predictor and cache indexing, and invalidate the committed
   snapshots.  Each entry is a confirmed, documented finding pinned by
   test_check; any finding {e not} listed here still fails the gate. *)
let expected_findings =
  [ ("gcc", [ (53, Lint.Dataflow_unreachable) ]);
    ("xhpcg", [ (72, Lint.Dead_store) ]) ]

let split_expected ~name diags =
  let expected =
    Option.value (List.assoc_opt name expected_findings) ~default:[]
  in
  List.partition
    (fun (d : Lint.diag) -> not (List.mem (d.Lint.pc, d.Lint.rule) expected))
    diags

let scoreboard_compare ~tagger etrace =
  let pair (policy_name, policy, criticality) =
    let cfg = Cpu_config.with_policy policy Cpu_config.skylake in
    let off = Cpu_core.run ~criticality cfg etrace in
    match Cpu_core.run ~criticality (Cpu_config.with_scoreboard true cfg) etrace with
    | on -> { policy_name; violation = None; stats_match = off = on }
    | exception Scoreboard.Violation msg ->
      { policy_name; violation = Some msg; stats_match = false }
  in
  List.map pair
    [ ("oldest_ready", Scheduler.Oldest_ready, Cpu_core.No_tags);
      ("crisp", Scheduler.Crisp, Cpu_core.Static_tags (Tagger.is_critical tagger)) ]

let check_workload ?(instrs = 60_000) ?(train_instrs = 40_000) ?(scoreboard = false)
    ?(static = false) name =
  let ref_wl = Catalog.make ~input:Workload.Ref ~instrs name in
  let lint, acknowledged = split_expected ~name (Lint.check_workload ref_wl) in
  let train_wl = Catalog.make ~input:Workload.Train ~instrs:train_instrs name in
  let trace = Workload.trace train_wl in
  let deps = Deps.compute trace in
  let profile = Profiler.profile trace in
  let classified = Classifier.classify profile Classifier.default in
  let options = Tagger.default_options in
  let roots =
    List.map (fun (pc, _) -> (pc, `Load)) classified.Classifier.delinquent_loads
    @ List.map (fun (pc, _) -> (pc, `Branch)) classified.Classifier.hard_branches
  in
  let slices =
    List.concat_map
      (fun (root_pc, kind) ->
        List.map
          (fun follow_memory ->
            let slice = Slicer.extract ~follow_memory trace deps ~root_pc in
            let violations = Slice_check.verify_slice ~follow_memory trace deps slice in
            { root_pc; kind; follow_memory; violations })
          [ true; false ])
      roots
  in
  let tagger = Tagger.build ~options trace deps profile classified in
  let tagging = Slice_check.verify_tagging ~options profile tagger in
  let scoreboard =
    if scoreboard then scoreboard_compare ~tagger (Workload.trace ref_wl) else []
  in
  let static =
    if static then begin
      let st = Static_crit.analyze ref_wl in
      let again = Static_crit.analyze ref_wl in
      Some
        { candidates = List.length st.Static_crit.candidates;
          comparison = Static_crit.compare_tagging st tagger;
          deterministic = st = again }
    end
    else None
  in
  { workload = name; lint; acknowledged; roots = List.length roots; slices;
    tagging; scoreboard; static }

let check_all ?instrs ?train_instrs ?scoreboard ?static () =
  List.map (check_workload ?instrs ?train_instrs ?scoreboard ?static) Catalog.names

let ok r =
  r.lint = []
  && List.for_all (fun s -> s.violations = []) r.slices
  && r.tagging = []
  && List.for_all (fun s -> s.violation = None && s.stats_match) r.scoreboard
  && match r.static with Some s -> s.deterministic | None -> true

let pp_report fmt r =
  let slice_violations =
    List.fold_left (fun n s -> n + List.length s.violations) 0 r.slices
  in
  Format.fprintf fmt "%-14s %s  lint:%d  roots:%d  slice-violations:%d  tagging:%d"
    r.workload
    (if ok r then "ok  " else "FAIL")
    (List.length r.lint) r.roots slice_violations (List.length r.tagging);
  if r.acknowledged <> [] then
    Format.fprintf fmt "  acknowledged:%d" (List.length r.acknowledged);
  List.iter
    (fun sb ->
      Format.fprintf fmt "  scoreboard[%s]:%s" sb.policy_name
        (match sb.violation with
        | Some _ -> "violation"
        | None -> if sb.stats_match then "ok" else "stats-diverge"))
    r.scoreboard;
  (match r.static with
  | None -> ()
  | Some s ->
    Format.fprintf fmt "@,  static: %d candidate(s)%s — %a" s.candidates
      (if s.deterministic then "" else " NON-DETERMINISTIC")
      Static_crit.pp_comparison s.comparison);
  List.iter (fun d -> Format.fprintf fmt "@,  %a" Lint.pp_diag d) r.lint;
  List.iter
    (fun s ->
      List.iter
        (fun v ->
          Format.fprintf fmt "@,  slice root %d (%s%s): %a" s.root_pc
            (match s.kind with `Load -> "load" | `Branch -> "branch")
            (if s.follow_memory then "" else ", no-memory")
            Slice_check.pp_violation v)
        s.violations)
    r.slices;
  List.iter
    (fun v -> Format.fprintf fmt "@,  tagging: %a" Slice_check.pp_violation v)
    r.tagging;
  List.iter
    (fun sb ->
      match sb.violation with
      | Some msg -> Format.fprintf fmt "@,  scoreboard[%s]: %s" sb.policy_name msg
      | None ->
        if not sb.stats_match then
          Format.fprintf fmt
            "@,  scoreboard[%s]: statistics diverge between on and off runs"
            sb.policy_name)
    r.scoreboard
