type sizes = {
  eval_instrs : int;
  train_instrs : int;
}

let default_sizes = { eval_instrs = 100_000; train_instrs = 80_000 }

type ctx = {
  sizes : sizes;
  pool : Exec.Pool.t;
  policy : Resil.Supervise.policy;
  journal : Resil.Journal.t option;
  sample : Sample_config.t option;
}

let default =
  { sizes = default_sizes;
    pool = Exec.Pool.sequential;
    policy = Resil.Supervise.default_policy;
    journal = None;
    sample = None }

let apps = Catalog.spec_names @ Catalog.datacenter_names

let cell_ident ~tag name j = Printf.sprintf "%s/%s/%d" tag name j

(* The journal signature ties checkpoints to the run shape: resuming
   with different instruction budgets, flipping between sampled and full
   fidelity, or reading another payload format must recompute, not
   reuse. *)
let journal_signature { sizes; sample; _ } =
  Printf.sprintf "crisp experiments eval=%d train=%d %s%s" sizes.eval_instrs
    sizes.train_instrs Cell_store.payload_format
    (match sample with
    | None -> ""
    | Some s -> " sample=" ^ Sample_config.to_string s)

(* [submit_cells ctx ~tag ~arity ~names ~cols ~cell] runs the full grid
   through one {!Cell_store} under the idents ["TAG/APP/COL"] and
   reassembles rows in catalog order.  Cells are pure (memoised through
   Runner), so execution order cannot change the values.  A degraded
   cell (already logged by the store) reads as [arity] NaNs, rendered as
   an error marker by Report. *)
let submit_cells ctx ~tag ~arity ~names ~cols ~cell =
  let store = Cell_store.create ?journal:ctx.journal ctx.pool ctx.policy in
  let degraded = List.init arity (fun _ -> Float.nan) in
  let rows = Array.make_matrix (List.length names) (List.length cols) degraded in
  Cell_store.grid store ~names ~cols ~arity ~ident:(cell_ident ~tag) ~cell
    (fun r j _ _ outcome -> Result.iter (fun vs -> rows.(r).(j) <- vs) outcome);
  List.mapi (fun r name -> (name, Array.to_list rows.(r))) names

let submit_scalar_cells ctx ~tag ~names ~cols ~cell =
  submit_cells ctx ~tag ~arity:1 ~names ~cols ~cell:(fun name col -> [ cell name col ])
  |> List.map (fun (name, cells) -> (name, List.map List.hd cells))

let crisp_tagging ~sizes ~name =
  let outcome =
    Runner.evaluate ~eval_instrs:sizes.eval_instrs ~train_instrs:sizes.train_instrs
      ~name Runner.crisp_default
  in
  match outcome.Runner.tagging with
  | Some tagging -> tagging
  | None -> assert false

(* ------------------------------------------------------------------ *)

let table1 () =
  print_endline "\n== Table 1: simulated system ==";
  Format.printf "%a@." Cpu_config.pp Cpu_config.skylake

(* The timeline is an observation of the run, so it is read from a
   tracer's retire stamps and smoothed over 25-cycle windows. *)
let upc_series cfg ~criticality trace =
  let tracer = Obs_tracer.create () in
  ignore (Cpu_core.run ~criticality ~tracer cfg trace);
  Report.windowed_mean ~window:25 (Obs_tracer.retire_timeline tracer)

let fig1 { sizes; _ } =
  let train =
    Workload.trace
      (Catalog.pointer_chase ~input:Workload.Train ~instrs:sizes.train_instrs ())
  in
  let tagging = Tagger.analyze train in
  let eval_workload =
    Catalog.pointer_chase ~input:Workload.Ref ~instrs:(min sizes.eval_instrs 40_000) ()
  in
  let trace = Workload.trace eval_workload in
  let ooo =
    upc_series
      (Cpu_config.with_policy Scheduler.Oldest_ready Cpu_config.skylake)
      ~criticality:Cpu_core.No_tags trace
  in
  let crisp =
    upc_series
      (Cpu_config.with_policy Scheduler.Crisp Cpu_config.skylake)
      ~criticality:(Cpu_core.Static_tags (Tagger.is_critical tagging)) trace
  in
  Report.print_series ~title:"Figure 1: UPC timeline, OOO baseline" ooo;
  Report.print_series ~title:"Figure 1: UPC timeline, CRISP" crisp;
  let avg series =
    Report.mean (Array.to_list (Array.map snd series))
  in
  Printf.printf "average UPC: OOO %.3f  CRISP %.3f  (+%.1f%%)\n" (avg ooo) (avg crisp)
    (100. *. ((avg crisp /. avg ooo) -. 1.));
  (ooo, crisp)

let motivating { sizes; _ } =
  let run ~with_prefetch =
    let w =
      Catalog.pointer_chase ~input:Workload.Ref ~instrs:sizes.eval_instrs
        ~with_prefetch ()
    in
    Cpu_stats.ipc
      (Cpu_core.run
         (Cpu_config.with_policy Scheduler.Oldest_ready Cpu_config.skylake)
         (Workload.trace w))
  in
  let plain = run ~with_prefetch:false in
  let prefetched = run ~with_prefetch:true in
  Printf.printf
    "\n== Section 3.1: manual prefetch on the pointer-chase kernel ==\n\
     IPC without prefetch %.2f, with __builtin_prefetch %.2f (paper: 1.89 -> 2.71)\n"
    plain prefetched;
  (plain, prefetched)

let fig3 () =
  let w = Catalog.pointer_chase ~input:Workload.Train ~instrs:30_000 () in
  let trace = Workload.trace w in
  let report = Profiler.profile trace in
  let classification = Classifier.classify report Classifier.default in
  let root_pc =
    match classification.Classifier.delinquent_loads with
    | (pc, _) :: _ -> pc
    | [] -> failwith "fig3: no delinquent load found"
  in
  let deps = Deps.compute trace in
  let slice = Slicer.extract trace deps ~root_pc in
  print_endline "\n== Figure 3: load-slice extraction on the microbenchmark ==";
  Array.iteri
    (fun pc decoded ->
      let marker =
        if pc = root_pc then "R>" else if slice.Slicer.pcs.(pc) then " *" else "  "
      in
      Format.printf "%s %4d: %a@." marker pc Program.pp_decoded decoded)
    trace.Executor.prog.Program.code;
  Printf.printf "slice: %d static instructions, %.1f dynamic average\n"
    (Slicer.size slice) slice.Slicer.avg_dynamic_length;
  slice.Slicer.pc_list

(* The grid figures (4, 7-11) are driven entirely by the shared
   {!Grid} specs, so the daemon-served and locally-run paths compute
   identical cells and render identical text. *)
let run_grid ({ sizes; sample; _ } as ctx) (spec : Grid.spec) =
  let rows =
    submit_scalar_cells ctx ~tag:spec.Grid.tag ~names:spec.Grid.names
      ~cols:spec.Grid.columns
      ~cell:(fun name column ->
        Grid.cell_value ?sample ~eval_instrs:sizes.eval_instrs
          ~train_instrs:sizes.train_instrs ~name ~metric:spec.Grid.metric column)
  in
  Grid.render spec rows;
  Grid.full_rows spec rows

let single_column = function
  | name, [ v ] -> (name, v)
  | _ -> assert false

let fig4 ctx = List.map single_column (run_grid ctx Grid.fig4)

let fig7 ctx = run_grid ctx Grid.fig7

let fig8 ctx = run_grid ctx Grid.fig8

let fig9 ctx = run_grid ctx Grid.fig9

let fig10 ctx = run_grid ctx Grid.fig10

let fig11 ctx = List.map single_column (run_grid ctx Grid.fig11)

let fig12 ({ sizes; _ } as ctx) =
  let rows =
    submit_cells ctx ~tag:"fig12" ~arity:3 ~names:apps ~cols:[ () ]
      ~cell:(fun name () ->
        let critical = Tagger.is_critical (crisp_tagging ~sizes ~name) in
        let eval_workload =
          Catalog.make ~input:Workload.Ref ~instrs:sizes.eval_instrs name
        in
        let trace = Workload.trace eval_workload in
        let none _ = false in
        let static_base = Layout.static_bytes trace.Executor.prog ~critical:none in
        let static_tagged = Layout.static_bytes trace.Executor.prog ~critical in
        let dyn_base = Layout.dynamic_bytes trace ~critical:none in
        let dyn_tagged = Layout.dynamic_bytes trace ~critical in
        let ooo =
          Runner.evaluate ~eval_instrs:sizes.eval_instrs
            ~train_instrs:sizes.train_instrs ~name Runner.Ooo
        in
        let crisp =
          Runner.evaluate ~eval_instrs:sizes.eval_instrs
            ~train_instrs:sizes.train_instrs ~name Runner.crisp_default
        in
        let mpki_base = Cpu_stats.mpki_l1i ooo.Runner.stats in
        let mpki_tagged = Cpu_stats.mpki_l1i crisp.Runner.stats in
        let mpki_delta =
          if mpki_base < 0.01 then 0. else (mpki_tagged -. mpki_base) /. mpki_base
        in
        [ (float_of_int static_tagged /. float_of_int static_base) -. 1.;
          (float_of_int dyn_tagged /. float_of_int dyn_base) -. 1.;
          mpki_delta ])
    |> List.map (function name, [ v ] -> (name, v) | _ -> assert false)
  in
  Report.print_percent_table
    ~title:"Figure 12: code-footprint overhead of the criticality prefix"
    ~header:[ "static"; "dynamic"; "L1I MPKI" ] rows;
  rows

(* The crisp-check v2 comparison: run the profile-free static predictor
   and the full profiled FDO flow on every workload, and score the
   overlap.  Counts travel as floats so the rows fit the shared grid
   plumbing (and the golden vector); they are exact small integers. *)
let static_crit ({ sizes; _ } as ctx) =
  let rows =
    submit_cells ctx ~tag:"static_crit" ~arity:8 ~names:Catalog.names ~cols:[ () ]
      ~cell:(fun name () ->
        let wl = Catalog.make ~input:Workload.Ref ~instrs:sizes.eval_instrs name in
        let prediction = Static_crit.analyze wl in
        let tagging = crisp_tagging ~sizes ~name in
        let c = Static_crit.compare_tagging prediction tagging in
        [ float_of_int c.Static_crit.predicted_pcs;
          float_of_int c.Static_crit.tagged_pcs;
          float_of_int c.Static_crit.overlap_pcs;
          c.Static_crit.precision;
          c.Static_crit.recall;
          c.Static_crit.jaccard;
          float_of_int c.Static_crit.load_roots;
          float_of_int c.Static_crit.load_roots_hit ])
    |> List.map (function name, [ v ] -> (name, v) | _ -> assert false)
  in
  Report.print_table
    ~title:"Static criticality predictor vs profiled CRISP tagger"
    ~header:
      [ "pred"; "tagged"; "overlap"; "prec"; "recall"; "jacc"; "ld-root"; "hit" ]
    rows;
  rows

let ablations ({ sizes; _ } as ctx) =
  let subset = [ "namd"; "moses"; "pointer_chase"; "deepsjeng"; "mcf" ] in
  let cfg = Cpu_config.skylake in
  let no_filter = { Tagger.default_options with Tagger.critical_path_filter = false } in
  let no_memory = { Tagger.default_options with Tagger.follow_memory = false } in
  let no_guardrail = { Tagger.default_options with Tagger.ratio_max = 1.0 } in
  let crisp options = (cfg, Runner.Crisp (Classifier.default, options)) in
  let cols =
    [ crisp Tagger.default_options;
      crisp no_filter;
      crisp no_memory;
      crisp no_guardrail;
      (* The random-pick scheduler is compared against the oldest-ready
         baseline with no tags on either side. *)
      (Cpu_config.with_policy Scheduler.Random_ready cfg, Runner.Ooo) ]
  in
  let ipc ~cfg ~name variant =
    Cpu_stats.ipc
      (Runner.evaluate ~cfg ~eval_instrs:sizes.eval_instrs
         ~train_instrs:sizes.train_instrs ~name variant)
        .Runner.stats
  in
  let rows =
    submit_scalar_cells ctx ~tag:"ablations" ~names:subset ~cols
      ~cell:(fun name (column_cfg, variant) ->
        let base = ipc ~cfg ~name Runner.Ooo in
        (ipc ~cfg:column_cfg ~name variant /. base) -. 1.)
  in
  Report.print_percent_table
    ~title:"Ablations: CRISP design choices (gain over OOO)"
    ~header:[ "full"; "no-cpf"; "no-mem"; "no-cap"; "random" ]
    rows;
  rows

(* Section 6.1: a kernel whose critical path is a serial division chain,
   each division waking a burst of dependent scoring work.  With
   [use_long_op_slices] the divisions are tagged and jump the burst. *)
let division { sizes; _ } =
  let build ~input ~instrs =
    let mb = Mem_builder.create () in
    let table = Mem_builder.int_array mb (Array.init 512 (fun i -> i + 1)) in
    let buf, buf_init = Kernel_util.scratch_buffer mb in
    let d = 1 and k = 2 and t = 3 and x = 4 and tb = 5 in
    let open Program in
    let code =
      [ Label "loop";
        Alu (Isa.And, t, d, Imm 511);
        Alu (Isa.Shl, t, t, Imm 3);
        Alu (Isa.Add, t, t, Reg tb);
        Ld (x, t, 0);  (* cache-resident divisor pick *)
        Div (d, d, k) ]  (* the critical long-latency chain *)
      @ Kernel_util.payload ~tag:"div-scoring" ~dep:d ~buf ~loads:6 ~fp_ops:24
          ~stores:10 ()
      @ [ Alu (Isa.Add, d, d, Reg x);
          Jmp "loop" ]
    in
    ignore input;
    { Workload.name = "divchain";
      description = "serial division chain with dependent scoring bursts";
      program = assemble ~name:"divchain" code;
      reg_init = [ (d, 987_654_321); (k, 1); (tb, table); buf_init ];
      mem_init = Mem_builder.image mb;
      max_instrs = instrs }
  in
  let train = build ~input:Workload.Train ~instrs:sizes.train_instrs in
  (* Long-op slices only: isolate the extension. *)
  let options =
    { Tagger.default_options with
      Tagger.use_long_op_slices = true;
      use_load_slices = false;
      use_branch_slices = false }
  in
  let tagging = Tagger.analyze ~options (Workload.trace train) in
  let trace =
    Workload.trace (build ~input:Workload.Ref ~instrs:sizes.eval_instrs)
  in
  let ooo =
    Cpu_core.run
      (Cpu_config.with_policy Scheduler.Oldest_ready Cpu_config.skylake)
      trace
  in
  let crisp =
    Cpu_core.run
      ~criticality:(Cpu_core.Static_tags (Tagger.is_critical tagging))
      (Cpu_config.with_policy Scheduler.Crisp Cpu_config.skylake)
      trace
  in
  let o = Cpu_stats.ipc ooo and c = Cpu_stats.ipc crisp in
  Printf.printf
    "\n== Section 6.1 extension: division criticality ==\n\
     division-chain kernel: OOO IPC %.3f, CRISP+long-op slices IPC %.3f (%+.1f%%)\n"
    o c
    (100. *. ((c /. o) -. 1.));
  (o, c)

let figures =
  [ ("table1", fun _ -> table1 ());
    ("motivating", fun ctx -> ignore (motivating ctx));
    ("fig1", fun ctx -> ignore (fig1 ctx));
    ("fig3", fun _ -> ignore (fig3 ()));
    ("fig4", fun ctx -> ignore (fig4 ctx));
    ("fig7", fun ctx -> ignore (fig7 ctx));
    ("fig8", fun ctx -> ignore (fig8 ctx));
    ("fig9", fun ctx -> ignore (fig9 ctx));
    ("fig10", fun ctx -> ignore (fig10 ctx));
    ("fig11", fun ctx -> ignore (fig11 ctx));
    ("fig12", fun ctx -> ignore (fig12 ctx));
    ("static_crit", fun ctx -> ignore (static_crit ctx));
    ("ablations", fun ctx -> ignore (ablations ctx));
    ("division", fun ctx -> ignore (division ctx)) ]

(* Run one figure, degrading instead of propagating: a crash inside a
   non-grid figure (or a grid figure's rendering) is logged and replaced
   by an explicit marker line, so the rest of the suite still runs and
   the CLI can exit with a failure summary. *)
let run ctx ident =
  let figure = List.assoc ident figures in
  match figure ctx with
  | () -> ()
  | exception exn ->
    Resil.Log.record
      (Resil.Log.Degraded { ident; error = Printexc.to_string exn });
    Printf.printf "\n== %s: DEGRADED (%s) ==\n" ident (Printexc.to_string exn)

let run_all ctx = List.iter (fun (ident, _) -> run ctx ident) figures
