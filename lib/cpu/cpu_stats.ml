type stall_breakdown = {
  dram_load : int;
  llc_load : int;
  other_load : int;
  long_op : int;
  other : int;
}

type t = {
  cycles : int;
  retired : int;
  loads : int;
  stores : int;
  branches : int;
  branch_mispredicts : int;
  btb_misses : int;
  ras_mispredicts : int;
  head_stalls : stall_breakdown;
  mlp_sum : float;
  mlp_cycles : int;
  critical_retired : int;
  mem : Memory_system.stats;
}

(* The one field walk behind [add] and [sub]. *)
let combine op fop a b =
  { cycles = op a.cycles b.cycles;
    retired = op a.retired b.retired;
    loads = op a.loads b.loads;
    stores = op a.stores b.stores;
    branches = op a.branches b.branches;
    branch_mispredicts = op a.branch_mispredicts b.branch_mispredicts;
    btb_misses = op a.btb_misses b.btb_misses;
    ras_mispredicts = op a.ras_mispredicts b.ras_mispredicts;
    head_stalls =
      { dram_load = op a.head_stalls.dram_load b.head_stalls.dram_load;
        llc_load = op a.head_stalls.llc_load b.head_stalls.llc_load;
        other_load = op a.head_stalls.other_load b.head_stalls.other_load;
        long_op = op a.head_stalls.long_op b.head_stalls.long_op;
        other = op a.head_stalls.other b.head_stalls.other };
    mlp_sum = fop a.mlp_sum b.mlp_sum;
    mlp_cycles = op a.mlp_cycles b.mlp_cycles;
    critical_retired = op a.critical_retired b.critical_retired;
    mem = Memory_system.map2_stats op a.mem b.mem }

let add = combine ( + ) ( +. )

let sub = combine ( - ) ( -. )

let zero =
  { cycles = 0;
    retired = 0;
    loads = 0;
    stores = 0;
    branches = 0;
    branch_mispredicts = 0;
    btb_misses = 0;
    ras_mispredicts = 0;
    head_stalls = { dram_load = 0; llc_load = 0; other_load = 0; long_op = 0; other = 0 };
    mlp_sum = 0.;
    mlp_cycles = 0;
    critical_retired = 0;
    mem =
      { Memory_system.l1d_hits = 0;
        l1d_misses = 0;
        llc_hits = 0;
        llc_misses = 0;
        l1i_hits = 0;
        l1i_misses = 0;
        dram_requests = 0;
        dram_row_hits = 0;
        prefetches_issued = 0;
        prefetch_hits_l1d = 0;
        prefetch_hits_llc = 0 } }

let ipc t = if t.cycles = 0 then 0. else float_of_int t.retired /. float_of_int t.cycles

let per_ki value t =
  if t.retired = 0 then 0. else 1000. *. float_of_int value /. float_of_int t.retired

let mpki_llc t = per_ki t.mem.Memory_system.llc_misses t

let mpki_l1i t = per_ki t.mem.Memory_system.l1i_misses t

let mispredicts_per_ki t = per_ki t.branch_mispredicts t

let avg_mlp t = if t.mlp_cycles = 0 then 0. else t.mlp_sum /. float_of_int t.mlp_cycles

let pp_summary fmt t =
  Format.fprintf fmt "cycles %d  retired %d  IPC %.3f@." t.cycles t.retired (ipc t);
  Format.fprintf fmt "LLC MPKI %.2f  L1I MPKI %.2f  br-mpki %.2f  avg MLP %.2f@."
    (mpki_llc t) (mpki_l1i t) (mispredicts_per_ki t) (avg_mlp t);
  Format.fprintf fmt
    "head stalls: dram %d  llc %d  load %d  long-op %d  other %d@."
    t.head_stalls.dram_load t.head_stalls.llc_load t.head_stalls.other_load
    t.head_stalls.long_op t.head_stalls.other
