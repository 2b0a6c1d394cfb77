(* Tests for the workload suite: every kernel assembles, runs to its
   instruction budget, and exhibits the memory/branch character it was
   designed for. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

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
        (Array.length trace.Executor.dyns >= 4_999))
    Catalog.names

let test_catalog_unknown () =
  Alcotest.check_raises "unknown workload" Not_found (fun () ->
      ignore (Catalog.make "nonesuch"))

let test_inputs_differ () =
  let t1 = Workload.trace (Catalog.make ~input:Workload.Train ~instrs:5_000 "mcf") in
  let t2 = Workload.trace (Catalog.make ~input:Workload.Ref ~instrs:5_000 "mcf") in
  check bool "train and ref traces differ" true (t1.Executor.dyns <> t2.Executor.dyns);
  check int "same static program" (Array.length t1.Executor.prog.Program.code)
    (Array.length t2.Executor.prog.Program.code)

let test_deterministic_generation () =
  let t1 = Workload.trace (Catalog.make ~input:Workload.Ref ~instrs:5_000 "xz") in
  let t2 = Workload.trace (Catalog.make ~input:Workload.Ref ~instrs:5_000 "xz") in
  check bool "same input, same trace" true (t1.Executor.dyns = t2.Executor.dyns)

(* Executor.run stores into a copy-on-write view, so the declared image
   seeds any number of identical runs and keeps its bounds. *)
let test_retrace_leaves_image () =
  List.iter
    (fun name ->
      let w = Catalog.make ~input:Workload.Ref ~instrs:5_000 name in
      let bounds = Mem_image.bounds w.Workload.mem_init in
      let t1 = Workload.trace w in
      let t2 = Workload.trace w in
      check bool (name ^ ": same trace twice") true (t1.Executor.dyns = t2.Executor.dyns);
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
    Array.fold_left
      (fun acc (d : Executor.dyn) ->
        if d.Executor.op = Isa.Prefetch then acc + 1 else acc)
      0 trace.Executor.dyns
  in
  check int "no prefetches in the plain kernel" 0 (count_prefetches plain);
  check bool "prefetch variant issues prefetches" true (count_prefetches prefetched > 10)

let test_moses_has_deep_chains () =
  let trace, r = profile "moses" in
  ignore r;
  let deps = Deps.compute trace in
  (* find a level-3 load (depends on a load that depends on a load) *)
  let dyns = trace.Executor.dyns in
  let has_deep_chain = ref false in
  Array.iteri
    (fun i (d : Executor.dyn) ->
      if d.Executor.op = Isa.Load then begin
        let p1 = deps.Deps.prod1.(i) in
        if p1 >= 0 && dyns.(p1).Executor.op = Isa.Load then begin
          let p2 = deps.Deps.prod1.(p1) in
          if p2 >= 0 && dyns.(p2).Executor.op = Isa.Load then has_deep_chain := true
        end
      end)
    dyns;
  check bool "three dependent load levels" true !has_deep_chain

let test_namd_spills_through_memory () =
  let trace, _ = profile "namd" in
  let deps = Deps.compute trace in
  let dyns = trace.Executor.dyns in
  let found = ref false in
  Array.iteri
    (fun i (d : Executor.dyn) ->
      if d.Executor.op = Isa.Load && deps.Deps.prod_mem.(i) >= 0 then begin
        (* a load whose value comes from an in-flight store: the spill *)
        let producer = dyns.(deps.Deps.prod_mem.(i)) in
        if producer.Executor.op = Isa.Store then found := true
      end)
    dyns;
  check bool "address chain passes through the stack" true !found

let test_gcc_code_footprint () =
  let w = Catalog.make ~input:Workload.Ref ~instrs:5_000 "gcc" in
  check bool "gcc has a large static program" true
    (Array.length w.Workload.program.Program.code > 800);
  let trace = Workload.trace w in
  let has_calls =
    Array.exists (fun (d : Executor.dyn) -> d.Executor.op = Isa.Call) trace.Executor.dyns
  in
  check bool "gcc exercises call/return" true has_calls

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
          Alcotest.test_case "gcc code footprint" `Quick test_gcc_code_footprint ] ) ]
