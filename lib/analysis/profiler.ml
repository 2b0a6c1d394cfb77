type load_stats = {
  mutable execs : int;
  mutable l1_misses : int;
  mutable llc_misses : int;
  mutable regular_deltas : int;
  mutable mlp_sum : int;
  mutable last_addr : int;
  mutable prev_delta : int;
}

type branch_stats = {
  mutable b_execs : int;
  mutable b_mispredicts : int;
}

type report = {
  loads : (int, load_stats) Hashtbl.t;
  branch_table : (int, branch_stats) Hashtbl.t;
  long_ops : (int, int) Hashtbl.t;
  pc_execs : int array;
  total_instrs : int;
  total_loads : int;
  total_llc_misses : int;
  total_branches : int;
  total_mispredicts : int;
  mem_params : Memory_system.params;
}

(* Window (in dynamic instructions) for estimating how many other LLC
   misses are in flight around a given miss. *)
let mlp_window = 48

let load_entry loads pc =
  match Hashtbl.find_opt loads pc with
  | Some e -> e
  | None ->
    let e =
      { execs = 0; l1_misses = 0; llc_misses = 0; regular_deltas = 0; mlp_sum = 0;
        last_addr = min_int; prev_delta = min_int }
    in
    Hashtbl.add loads pc e;
    e

let branch_entry branches pc =
  match Hashtbl.find_opt branches pc with
  | Some e -> e
  | None ->
    let e = { b_execs = 0; b_mispredicts = 0 } in
    Hashtbl.add branches pc e;
    e

let profile ?(mem_params = Memory_system.skylake) (trace : Executor.t) =
  let n = Executor.length trace in
  let mem = Memory_system.create mem_params in
  let tage = Tage.create () in
  let loads = Hashtbl.create 64 in
  let branches = Hashtbl.create 64 in
  let long_ops = Hashtbl.create 16 in
  let pc_execs = Array.make (Array.length trace.Executor.prog.Program.code) 0 in
  let total_loads = ref 0 in
  let total_llc = ref 0 in
  let total_branches = ref 0 in
  let total_mispredicts = ref 0 in
  (* Dependence-aware MLP estimate.  Each value carries a "miss depth" —
     how many LLC misses its dataflow ancestry chains through — propagated
     across registers and memory.  Misses at the same depth within a short
     window are independent and overlap in an OOO core; misses at different
     depths are serialised and do not.  An out-of-order core can only
     overlap same-depth misses, so the MLP sample for a miss counts
     same-depth misses in the window (itself included). *)
  let reg_depth = Array.make Isa.num_regs 0 in
  let mem_depth = Hashtbl.create 1024 in
  (* Ring of recent LLC misses as (dyn index, depth). *)
  let recent_misses = Queue.create () in
  for i = 0 to n - 1 do
    let pc = Executor.pc trace i in
    let d = Executor.decoded trace i in
    let addr = Executor.addr trace i in
    pc_execs.(pc) <- pc_execs.(pc) + 1;
    let in_depth =
      let d1 = if d.Program.src1 >= 0 then reg_depth.(d.Program.src1) else 0 in
      let d2 = if d.Program.src2 >= 0 then reg_depth.(d.Program.src2) else 0 in
      max d1 d2
    in
    (match d.Program.op with
    | Isa.Load ->
      incr total_loads;
      let e = load_entry loads pc in
      e.execs <- e.execs + 1;
      if e.last_addr <> min_int then begin
        let delta = addr - e.last_addr in
        if delta = e.prev_delta then e.regular_deltas <- e.regular_deltas + 1;
        e.prev_delta <- delta
      end;
      e.last_addr <- addr;
      let stored_depth = Option.value ~default:0 (Hashtbl.find_opt mem_depth addr) in
      let depth = max in_depth stored_depth in
      let out_depth =
        match Memory_system.load_functional mem ~addr with
        | Memory_system.L1 -> depth
        | Memory_system.Llc ->
          e.l1_misses <- e.l1_misses + 1;
          depth
        | Memory_system.Mem ->
          e.l1_misses <- e.l1_misses + 1;
          e.llc_misses <- e.llc_misses + 1;
          incr total_llc;
          let depth = depth + 1 in
          while (not (Queue.is_empty recent_misses))
                && fst (Queue.peek recent_misses) < i - mlp_window do
            ignore (Queue.pop recent_misses)
          done;
          Queue.push (i, depth) recent_misses;
          let same_depth =
            Queue.fold (fun n (_, dd) -> if dd = depth then n + 1 else n) 0
              recent_misses
          in
          e.mlp_sum <- e.mlp_sum + same_depth;
          depth
      in
      if d.Program.dst >= 0 then reg_depth.(d.Program.dst) <- out_depth
    | Isa.Store ->
      ignore (Memory_system.load_functional mem ~addr);
      Hashtbl.replace mem_depth addr in_depth
    | Isa.Branch _ ->
      incr total_branches;
      let e = branch_entry branches pc in
      e.b_execs <- e.b_execs + 1;
      let taken = Executor.taken trace i in
      let predicted = Tage.predict_and_update tage ~pc ~taken in
      if predicted <> taken then begin
        e.b_mispredicts <- e.b_mispredicts + 1;
        incr total_mispredicts
      end
    | Isa.Div | Isa.Fp_div ->
      let count = Option.value ~default:0 (Hashtbl.find_opt long_ops pc) in
      Hashtbl.replace long_ops pc (count + 1);
      if d.Program.dst >= 0 then reg_depth.(d.Program.dst) <- in_depth
    | _ -> if d.Program.dst >= 0 then reg_depth.(d.Program.dst) <- in_depth)
  done;
  { loads;
    branch_table = branches;
    long_ops;
    pc_execs;
    total_instrs = n;
    total_loads = !total_loads;
    total_llc_misses = !total_llc;
    total_branches = !total_branches;
    total_mispredicts = !total_mispredicts;
    mem_params }

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

let miss_ratio e = ratio e.llc_misses e.execs

let stride_ratio e = ratio e.regular_deltas (max 1 (e.execs - 1))

let avg_mlp e = if e.llc_misses = 0 then 0. else ratio e.mlp_sum e.llc_misses

let mispredict_ratio e = ratio e.b_mispredicts e.b_execs

let amat_estimate report e =
  let p = report.mem_params in
  let miss = miss_ratio e in
  let l1_miss = ratio e.l1_misses e.execs in
  if miss > 0.5 then
    p.Memory_system.llc_latency + Dram.typical_miss_latency p.Memory_system.dram
  else if l1_miss > 0.5 then p.Memory_system.llc_latency
  else p.Memory_system.l1d_latency
