type options = {
  use_load_slices : bool;
  use_branch_slices : bool;
  use_long_op_slices : bool;
  critical_path_filter : bool;
  follow_memory : bool;
  ratio_max : float;
}

let default_options =
  { use_load_slices = true;
    use_branch_slices = true;
    use_long_op_slices = false;
    critical_path_filter = true;
    follow_memory = true;
    ratio_max = 0.40 }

let load_slices_only = { default_options with use_branch_slices = false }
let branch_slices_only = { default_options with use_load_slices = false }

type slice_info = {
  root_pc : int;
  kind : [ `Load | `Branch | `Long_op ];
  contribution : int;
  static_size : int;
  avg_dynamic_length : float;
  pcs : int list;
  dropped : bool;
}

type t = {
  critical : bool array;
  slices : slice_info list;
  static_count : int;
  dynamic_ratio : float;
}

(* Latency weight of a dynamic instruction for critical-path analysis:
   fixed latencies from the instruction tables, AMAT for loads under the
   hierarchy the report was profiled on. *)
let latency_of_dyn (report : Profiler.report) trace i =
  match Executor.op trace i with
  | Isa.Load -> begin
    match Hashtbl.find_opt report.Profiler.loads (Executor.pc trace i) with
    | Some stats -> Profiler.amat_estimate report stats
    | None -> Isa.exec_latency Isa.Load
  end
  | op -> Isa.exec_latency op

(* Critical-path cutoff (Section 3.5): keep the slice nodes whose best
   path reaches 60% of their instance's longest path. *)
let theta = 0.6

let build_slice options trace deps report ~root_pc ~kind ~contribution =
  let full = Slicer.extract ~follow_memory:options.follow_memory trace deps ~root_pc in
  let kept_pcs =
    if options.critical_path_filter then begin
      let latency_of = latency_of_dyn report trace in
      let keep = Critical_path.filter ~theta ~latency_of full in
      List.filter (fun pc -> keep.(pc)) full.Slicer.pc_list
    end
    else full.Slicer.pc_list
  in
  { root_pc;
    kind;
    contribution;
    static_size = List.length kept_pcs;
    avg_dynamic_length = full.Slicer.avg_dynamic_length;
    pcs = kept_pcs;
    dropped = false }

let dynamic_ratio_of (report : Profiler.report) critical =
  let tagged = ref 0 in
  Array.iteri (fun pc execs -> if critical.(pc) then tagged := !tagged + execs)
    report.Profiler.pc_execs;
  if report.Profiler.total_instrs = 0 then 0.
  else float_of_int !tagged /. float_of_int report.Profiler.total_instrs

let build ?(options = default_options) (trace : Executor.t) (deps : Deps.t)
    (report : Profiler.report) (classification : Classifier.result) =
  let num_pcs = Array.length trace.Executor.prog.Program.code in
  let slices = ref [] in
  if options.use_load_slices then
    List.iter
      (fun (pc, (stats : Profiler.load_stats)) ->
        slices :=
          build_slice options trace deps report ~root_pc:pc ~kind:`Load
            ~contribution:stats.Profiler.llc_misses
          :: !slices)
      classification.Classifier.delinquent_loads;
  if options.use_branch_slices then
    List.iter
      (fun (pc, (stats : Profiler.branch_stats)) ->
        slices :=
          build_slice options trace deps report ~root_pc:pc ~kind:`Branch
            ~contribution:stats.Profiler.b_mispredicts
          :: !slices)
      classification.Classifier.hard_branches;
  if options.use_long_op_slices then
    List.iter
      (fun (pc, execs) ->
        slices :=
          build_slice options trace deps report ~root_pc:pc ~kind:`Long_op
            ~contribution:execs
          :: !slices)
      classification.Classifier.long_ops;
  (* Keep the highest-contribution slices first when enforcing the dynamic
     ratio guardrail. *)
  let ordered =
    List.sort (fun a b -> compare b.contribution a.contribution) !slices
  in
  let critical = Array.make num_pcs false in
  let apply slice = List.iter (fun pc -> critical.(pc) <- true) slice.pcs in
  let rec admit acc = function
    | [] -> List.rev acc
    | slice :: rest ->
      apply slice;
      let ratio = dynamic_ratio_of report critical in
      if ratio > options.ratio_max then begin
        (* Revert this slice to keep critical instructions a minority the
           scheduler can actually prioritise (Section 3.4's 40% cap);
           pcs shared with admitted slices stay tagged, and the delinquent
           root itself keeps its prefix. *)
        List.iter
          (fun pc ->
            let shared =
              List.exists (fun s -> (not s.dropped) && List.mem pc s.pcs) acc
            in
            if (not shared) && pc <> slice.root_pc then critical.(pc) <- false)
          slice.pcs;
        admit ({ slice with dropped = true } :: acc) rest
      end
      else admit (slice :: acc) rest
  in
  let final_slices = admit [] ordered in
  let static_count = Array.fold_left (fun n c -> if c then n + 1 else n) 0 critical in
  { critical;
    slices = final_slices;
    static_count;
    dynamic_ratio = dynamic_ratio_of report critical }

let analyze ?(thresholds = Classifier.default) ?options
    ?mem_params train_trace =
  let report = Profiler.profile ?mem_params train_trace in
  let classification = Classifier.classify report thresholds in
  let deps = Deps.compute train_trace in
  build ?options train_trace deps report classification

let is_critical t pc = pc >= 0 && pc < Array.length t.critical && t.critical.(pc)

let avg_load_slice_size t =
  let sizes =
    List.filter_map
      (fun s -> if s.kind = `Load then Some s.avg_dynamic_length else None)
      t.slices
  in
  match sizes with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. sizes /. float_of_int (List.length sizes)
