type thresholds = { miss_contribution_min : float }

let default = { miss_contribution_min = 0.01 }

(* The profiling heuristics of Section 3.2, fixed as in the paper. *)

(* A delinquent load misses the LLC on at least this share of its
   executions. *)
let llc_miss_ratio_min = 0.20

(* ... and misses in phases whose MLP is at most this, where its latency
   is exposed. *)
let mlp_max = 5.0

(* ... and is not covered by the stride prefetcher: at most this share
   of its address deltas repeat. *)
let stride_ratio_max = 0.75

(* Section 3.4: a hard branch mispredicts at least 15% of the time. *)
let branch_mispredict_min = 0.15

(* Section 6.1 extension: a division pc is a long op when it executes at
   least this share of all instructions. *)
let long_op_share_min = 0.015

type result = {
  delinquent_loads : (int * Profiler.load_stats) list;
  hard_branches : (int * Profiler.branch_stats) list;
  long_ops : (int * int) list;
}

let classify (report : Profiler.report) thresholds =
  let total_misses = max 1 report.Profiler.total_llc_misses in
  let loads =
    Hashtbl.fold
      (fun pc (e : Profiler.load_stats) acc ->
        let miss_contribution =
          float_of_int e.Profiler.llc_misses /. float_of_int total_misses
        in
        let delinquent =
          miss_contribution >= thresholds.miss_contribution_min
          && Profiler.miss_ratio e >= llc_miss_ratio_min
          && Profiler.stride_ratio e <= stride_ratio_max
          && (e.Profiler.llc_misses = 0 || Profiler.avg_mlp e <= mlp_max)
        in
        if delinquent then (pc, e) :: acc else acc)
      report.Profiler.loads []
  in
  let loads =
    List.sort
      (fun (_, a) (_, b) -> compare b.Profiler.llc_misses a.Profiler.llc_misses)
      loads
  in
  let branches =
    Hashtbl.fold
      (fun pc (e : Profiler.branch_stats) acc ->
        if Profiler.mispredict_ratio e >= branch_mispredict_min then (pc, e) :: acc
        else acc)
      report.Profiler.branch_table []
  in
  let branches =
    List.sort
      (fun (_, a) (_, b) -> compare b.Profiler.b_mispredicts a.Profiler.b_mispredicts)
      branches
  in
  let long_ops =
    let total = max 1 report.Profiler.total_instrs in
    Hashtbl.fold
      (fun pc execs acc ->
        if float_of_int execs /. float_of_int total >= long_op_share_min then
          (pc, execs) :: acc
        else acc)
      report.Profiler.long_ops []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  { delinquent_loads = loads; hard_branches = branches; long_ops }
