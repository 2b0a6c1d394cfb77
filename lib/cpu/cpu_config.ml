type t = {
  fetch_width : int;
  issue_width : int;
  retire_width : int;
  rob_size : int;
  rs_size : int;
  lq_size : int;
  sq_size : int;
  alu_ports : int;
  load_ports : int;
  store_ports : int;
  frontend_depth : int;
  redirect_penalty : int;
  btb_miss_penalty : int;
  btb_entries : int;
  ras_depth : int;
  ftq_entries : int;
  policy : Scheduler.policy;
  mem : Memory_system.params;
  seed : int;
  scoreboard : bool;
}

let skylake =
  { fetch_width = 6;
    issue_width = 6;
    retire_width = 6;
    rob_size = 224;
    rs_size = 96;
    lq_size = 64;
    sq_size = 128;
    alu_ports = 4;
    load_ports = 2;
    store_ports = 1;
    frontend_depth = 5;
    redirect_penalty = 12;
    btb_miss_penalty = 2;
    btb_entries = 8192;
    ras_depth = 32;
    ftq_entries = 128;
    policy = Scheduler.Oldest_ready;
    mem = Memory_system.skylake;
    seed = 0x51ab;
    scoreboard = false }

let with_policy policy t = { t with policy }

let with_issue_width issue_width t = { t with issue_width }

let with_scoreboard scoreboard t = { t with scoreboard }

let with_window ~rs ~rob t =
  { t with
    rs_size = rs;
    rob_size = rob;
    lq_size = max 16 (t.lq_size * rob / t.rob_size);
    sq_size = max 16 (t.sq_size * rob / t.rob_size) }

let policy_name = function
  | Scheduler.Oldest_ready -> "6-oldest-ready-instructions-first"
  | Scheduler.Crisp -> "CRISP (critical-first age matrix)"
  | Scheduler.Random_ready -> "random-ready"

let pp fmt t =
  let row name value = Format.fprintf fmt "  %-30s %s@." name value in
  Format.fprintf fmt "Simulated system:@.";
  row "Frontend width and retirement" (Printf.sprintf "%d-way" t.fetch_width);
  row "Issue (selection) width" (Printf.sprintf "%d per cycle" t.issue_width);
  row "Functional units"
    (Printf.sprintf "%d ALU, %d Load, %d Store" t.alu_ports t.load_ports t.store_ports);
  row "Branch predictor" "TAGE";
  row "Branch target buffer (BTB)" (Printf.sprintf "%d entries" t.btb_entries);
  row "ROB" (Printf.sprintf "%d entries" t.rob_size);
  row "Reservation station" (Printf.sprintf "%d entries (unified)" t.rs_size);
  row "Scheduler" (policy_name t.policy);
  row "Data prefetcher"
    (match (t.mem.Memory_system.enable_bop, t.mem.Memory_system.enable_stream) with
    | true, true -> "BOP and Stream"
    | true, false -> "BOP"
    | false, true -> "Stream"
    | false, false -> "none");
  row "Instruction prefetcher" (Printf.sprintf "FDIP, %d FTQ entries" t.ftq_entries);
  row "Load buffer" (Printf.sprintf "%d entries" t.lq_size);
  row "Store buffer" (Printf.sprintf "%d entries" t.sq_size);
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
