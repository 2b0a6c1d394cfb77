(* Tests for the workload suite: every kernel assembles, runs to its
   instruction budget, and exhibits the memory/branch character it was
   designed for. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* Two traces record the same run: every pc, branch outcome and address. *)
let same_trace t1 t2 =
  t1.Executor.dyns = t2.Executor.dyns && t1.Executor.addrs = t2.Executor.addrs

let profile name =
  let w = Catalog.make ~input:Workload.Train ~instrs:50_000 name in
  let trace = Workload.trace w in
  (trace, Profiler.profile trace)

let test_catalog_complete () =
  check int "17 workloads" 17 (List.length Catalog.names);
  List.iter
    (fun name ->
      let w = Catalog.make ~input:Workload.Ref ~instrs:5_000 name in
      let trace = Workload.trace w in
      check bool (name ^ " produces a full trace") true
        (Executor.length trace >= 4_999))
    Catalog.names

let test_catalog_unknown () =
  Alcotest.check_raises "unknown workload" Not_found (fun () ->
      ignore (Catalog.make "nonesuch"))

let test_inputs_differ () =
  let t1 = Workload.trace (Catalog.make ~input:Workload.Train ~instrs:5_000 "mcf") in
  let t2 = Workload.trace (Catalog.make ~input:Workload.Ref ~instrs:5_000 "mcf") in
  check bool "train and ref traces differ" true (not (same_trace t1 t2));
  check int "same static program" (Array.length t1.Executor.prog.Program.code)
    (Array.length t2.Executor.prog.Program.code)

let test_deterministic_generation () =
  let t1 = Workload.trace (Catalog.make ~input:Workload.Ref ~instrs:5_000 "xz") in
  let t2 = Workload.trace (Catalog.make ~input:Workload.Ref ~instrs:5_000 "xz") in
  check bool "same input, same trace" true (same_trace t1 t2)

(* Executor.run stores into a copy-on-write view, so the declared image
   seeds any number of identical runs and keeps its bounds. *)
let test_retrace_leaves_image () =
  List.iter
    (fun name ->
      let w = Catalog.make ~input:Workload.Ref ~instrs:5_000 name in
      let bounds = Mem_image.bounds w.Workload.mem_init in
      let t1 = Workload.trace w in
      let t2 = Workload.trace w in
      check bool (name ^ ": same trace twice") true (same_trace t1 t2);
      check bool (name ^ ": image bounds unchanged") true
        (Mem_image.bounds w.Workload.mem_init = bounds))
    Catalog.names

let miss_heavy_apps = [ "mcf"; "omnetpp"; "xhpcg"; "moses"; "memcached"; "xz" ]

let test_memory_character () =
  List.iter
    (fun name ->
      let _, r = profile name in
      check bool (name ^ " has LLC misses") true (r.Profiler.total_llc_misses > 50))
    miss_heavy_apps;
  let _, fotonik = profile "fotonik" in
  check bool "fotonik covered by prefetchers" true
    (fotonik.Profiler.total_llc_misses * 50 < fotonik.Profiler.total_loads)

let test_branch_character () =
  let hard = [ "deepsjeng"; "omnetpp"; "lbm" ] in
  List.iter
    (fun name ->
      let _, r = profile name in
      let rate =
        float_of_int r.Profiler.total_mispredicts
        /. float_of_int (max 1 r.Profiler.total_branches)
      in
      check bool (name ^ " has hard branches") true (rate > 0.10))
    hard;
  let _, fotonik = profile "fotonik" in
  let rate =
    float_of_int fotonik.Profiler.total_mispredicts
    /. float_of_int (max 1 fotonik.Profiler.total_branches)
  in
  check bool "fotonik branches are predictable" true (rate < 0.02)

let test_pointer_chase_variants () =
  let plain = Catalog.pointer_chase ~instrs:5_000 () in
  let prefetched = Catalog.pointer_chase ~instrs:5_000 ~with_prefetch:true () in
  let count_prefetches w =
    let trace = Workload.trace w in
    let n = ref 0 in
    for i = 0 to Executor.length trace - 1 do
      if Executor.op trace i = Isa.Prefetch then incr n
    done;
    !n
  in
  check int "no prefetches in the plain kernel" 0 (count_prefetches plain);
  check bool "prefetch variant issues prefetches" true (count_prefetches prefetched > 10)

let test_moses_has_deep_chains () =
  let trace, r = profile "moses" in
  ignore r;
  let deps = Deps.compute trace in
  (* find a level-3 load (depends on a load that depends on a load) *)
  let is_load i = Executor.op trace i = Isa.Load in
  let has_deep_chain = ref false in
  for i = 0 to Executor.length trace - 1 do
    if is_load i then begin
      let p1 = deps.Deps.prod1.(i) in
      if p1 >= 0 && is_load p1 then begin
        let p2 = deps.Deps.prod1.(p1) in
        if p2 >= 0 && is_load p2 then has_deep_chain := true
      end
    end
  done;
  check bool "three dependent load levels" true !has_deep_chain

let test_namd_spills_through_memory () =
  let trace, _ = profile "namd" in
  let deps = Deps.compute trace in
  let found = ref false in
  for i = 0 to Executor.length trace - 1 do
    if Executor.op trace i = Isa.Load && deps.Deps.prod_mem.(i) >= 0 then begin
      (* a load whose value comes from an in-flight store: the spill *)
      let producer = deps.Deps.prod_mem.(i) in
      if Executor.op trace producer = Isa.Store then found := true
    end
  done;
  check bool "address chain passes through the stack" true !found

let test_gcc_code_footprint () =
  let w = Catalog.make ~input:Workload.Ref ~instrs:5_000 "gcc" in
  check bool "gcc has a large static program" true
    (Array.length w.Workload.program.Program.code > 800);
  let trace = Workload.trace w in
  let has_calls =
    List.exists
      (fun i -> Executor.op trace i = Isa.Call)
      (List.init (Executor.length trace) Fun.id)
  in
  check bool "gcc exercises call/return" true has_calls

(* Every catalog kernel, on both inputs, reads back from the packed
   trace exactly as the record-per-micro-op reference executor traces it. *)
let test_catalog_matches_reference () =
  List.iter
    (fun name ->
      List.iter
        (fun (input, tag) ->
          let w = Catalog.make ~input ~instrs:20_000 name in
          let r =
            Ref_executor.run ~reg_init:w.Workload.reg_init ~mem_init:w.Workload.mem_init
              ~max_instrs:w.Workload.max_instrs w.Workload.program
          in
          match Ref_executor.agree r (Workload.trace w) with
          | None -> ()
          | Some msg -> Alcotest.failf "%s (%s): %s" name tag msg)
        [ (Workload.Train, "train"); (Workload.Ref, "ref") ])
    Catalog.names

(* The trace keeps two words per micro-op: everything reachable from it,
   the program included, stays under 20 B per instruction. *)
let test_trace_bytes_per_instr () =
  let t = Workload.trace (Catalog.make ~input:Workload.Ref ~instrs:100_000 "mcf") in
  let bytes = Obj.reachable_words (Obj.repr t) * (Sys.word_size / 8) in
  let per_instr = float_of_int bytes /. float_of_int (Executor.length t) in
  if per_instr > 20. then Alcotest.failf "%.1f B per instruction (limit 20)" per_instr

let () =
  Alcotest.run "workloads"
    [ ( "workloads",
        [ Alcotest.test_case "catalog complete" `Slow test_catalog_complete;
          Alcotest.test_case "unknown name" `Quick test_catalog_unknown;
          Alcotest.test_case "train/ref inputs differ" `Quick test_inputs_differ;
          Alcotest.test_case "deterministic generation" `Quick
            test_deterministic_generation;
          Alcotest.test_case "retrace leaves the image" `Quick test_retrace_leaves_image;
          Alcotest.test_case "memory character" `Slow test_memory_character;
          Alcotest.test_case "branch character" `Slow test_branch_character;
          Alcotest.test_case "pointer-chase variants" `Quick test_pointer_chase_variants;
          Alcotest.test_case "moses chain depth" `Quick test_moses_has_deep_chains;
          Alcotest.test_case "namd memory spills" `Quick test_namd_spills_through_memory;
          Alcotest.test_case "gcc code footprint" `Quick test_gcc_code_footprint;
          Alcotest.test_case "catalog traces = reference executor" `Quick
            test_catalog_matches_reference;
          Alcotest.test_case "trace bytes per instruction" `Quick
            test_trace_bytes_per_instr ] ) ]
