type t = {
  rob_size : int;
  rs_size : int;
  policy : Scheduler.policy;
  mem : Memory_system.params;
  scoreboard : bool;
}

(* Table 1: the Skylake-class core every figure simulates.  Only the
   RS/ROB window (Figure 9) and the scheduler policy vary, so the rest
   of the machine is fixed here. *)
let fetch_width = 6
let issue_width = 6 (* the "6" of 6-oldest-ready-first *)
let retire_width = 6
let alu_ports = 4
let load_ports = 2
let store_ports = 1
let frontend_depth = 5
let redirect_penalty = 12
let btb_miss_penalty = 2
let btb_entries = 8192
let ras_depth = 32
let ftq_entries = 128
let seed = 0x51ab

(* Table 1's 64-entry load buffer and 128-entry store buffer at the
   224-entry ROB, scaled with the ROB for the Section 5.4 windows. *)
let lq_size t = max 16 (64 * t.rob_size / 224)
let sq_size t = max 16 (128 * t.rob_size / 224)

let skylake =
  { rob_size = 224;
    rs_size = 96;
    policy = Scheduler.Oldest_ready;
    mem = Memory_system.skylake;
    scoreboard = false }

let with_policy policy t = { t with policy }

let with_scoreboard scoreboard t = { t with scoreboard }

let with_window ~rs ~rob t = { t with rs_size = rs; rob_size = rob }

let policy_name = function
  | Scheduler.Oldest_ready -> "6-oldest-ready-instructions-first"
  | Scheduler.Crisp -> "CRISP (critical-first age matrix)"
  | Scheduler.Random_ready -> "random-ready"

let pp fmt t =
  let row name value = Format.fprintf fmt "  %-30s %s@." name value in
  Format.fprintf fmt "Simulated system:@.";
  row "Frontend width and retirement" (Printf.sprintf "%d-way" fetch_width);
  row "Issue (selection) width" (Printf.sprintf "%d per cycle" issue_width);
  row "Functional units"
    (Printf.sprintf "%d ALU, %d Load, %d Store" alu_ports load_ports store_ports);
  row "Branch predictor" "TAGE";
  row "Branch target buffer (BTB)" (Printf.sprintf "%d entries" btb_entries);
  row "ROB" (Printf.sprintf "%d entries" t.rob_size);
  row "Reservation station" (Printf.sprintf "%d entries (unified)" t.rs_size);
  row "Scheduler" (policy_name t.policy);
  row "Data prefetcher"
    (match (t.mem.Memory_system.enable_bop, t.mem.Memory_system.enable_stream) with
    | true, true -> "BOP and Stream"
    | true, false -> "BOP"
    | false, true -> "Stream"
    | false, false -> "none");
  row "Instruction prefetcher" (Printf.sprintf "FDIP, %d FTQ entries" ftq_entries);
  row "Load buffer" (Printf.sprintf "%d entries" (lq_size t));
  row "Store buffer" (Printf.sprintf "%d entries" (sq_size t));
  let c (p : Cache.params) =
    Printf.sprintf "%d KiB, %d-way" (p.Cache.size_bytes / 1024) p.Cache.assoc
  in
  row "L1 instruction cache" (c t.mem.Memory_system.l1i);
  row "L1 data cache" (c t.mem.Memory_system.l1d);
  row "LLC unified cache" (c t.mem.Memory_system.llc);
  row "L1 D-cache latency"
    (Printf.sprintf "%d cycles" t.mem.Memory_system.l1d_latency);
  row "L1 I-cache latency"
    (Printf.sprintf "%d cycles" t.mem.Memory_system.l1i_latency);
  row "L3 cache latency" (Printf.sprintf "%d cycles" t.mem.Memory_system.llc_latency);
  row "Memory" "DDR4-2400 (1 channel)"
