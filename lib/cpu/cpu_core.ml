type criticality =
  | No_tags
  | Static_tags of (int -> bool)
  | Dynamic_tags of (int -> bool)

(* Reorder-buffer entry states. *)
let st_empty = 0
let st_waiting = 1
let st_ready = 2
let st_issued = 3
let st_done = 4

let line_bytes = 64

(* The wheel horizon must cover the common-case longest completion
   latency (an unloaded DRAM round-trip is ~130 cycles); queue-delayed
   fills beyond it spill into the wheel's overflow bucket. *)
let wheel_horizon = 1024

(* The ROB is a struct-of-arrays: the per-entry record of the previous
   engine forced a pointer deref per field touch and a [dependents] list
   cons per dependency edge.  Entry [i]'s fields live at index [i] of
   each array; wakeup edges live in the intrusive [wakeup] lists. *)
type state = {
  cfg : Cpu_config.t;
  trace : Executor.t;
  code : Program.decoded array;  (* the trace's static program *)
  layout : Layout.t;
  critical_of : int -> bool;  (* by dynamic index *)
  start : int;  (* dynamic index of the window's first instruction *)
  mem : Memory_system.t;
  tage : Tage.t;
  btb : Btb.t;
  ras : Ras.t;
  sched : Scheduler.t;
  rob_dyn : int array;  (* dynamic trace index, -1 when empty *)
  (* Copied from the trace at dispatch: issue, execute and retire read
     these instead of going back through the trace. *)
  rob_pc : int array;
  rob_addr : int array;  (* -1 when the op does not touch memory *)
  rob_state : int array;
  rob_deps_left : int array;
  rob_critical : bool array;
  rob_rs_slot : int array;
  rob_forward : bool array;  (* load forwarded from an in-flight store *)
  rob_level : int array;  (* Memory_system level code, 0 = unknown *)
  wakeup : Wakeup.t;  (* rob index -> rob indices woken at completion *)
  mutable rob_head : int;
  mutable rob_count : int;
  rename : int array;  (* architectural reg -> rob index of producer, -1 *)
  rs_owner : int array;  (* rs slot -> rob index *)
  store_map : Int_table.t;  (* address -> rob index of youngest in-flight store *)
  lq_size : int;  (* Cpu_config.lq_size/sq_size, computed once *)
  sq_size : int;
  mutable lq_count : int;
  mutable sq_count : int;
  wheel : Event_wheel.t;  (* completion calendar *)
  mshr_retry : int array;  (* rob indices to re-ready next cycle *)
  mutable mshr_retry_len : int;
  fq_dyn : int array;  (* fetch queue ring: dyn index / dispatch-ready cycle *)
  fq_ready : int array;
  fq_cap : int;
  mutable fq_head : int;
  mutable fq_len : int;
  l1d_latency : int;  (* hoisted from Memory_system.params *)
  l1i_latency : int;
  mutable fetch_idx : int;
  mutable fetch_blocked_until : int;
  mutable waiting_dyn : int;  (* mispredicted branch dyn stalling fetch, -1 *)
  mutable current_line : int;
  mutable fdip_idx : int;
  mutable cycle : int;
  mutable retired : int;
  mutable retire_stop : int;  (* retirement ceiling: exact window boundaries *)
  (* statistics *)
  mutable loads : int;
  mutable stores : int;
  mutable branches : int;
  mutable branch_mispredicts : int;
  mutable btb_misses : int;
  mutable ras_mispredicts : int;
  mutable stall_dram : int;
  mutable stall_llc : int;
  mutable stall_other_load : int;
  mutable stall_long_op : int;
  mutable stall_other : int;
  mutable mlp_sum_units : int;  (* per-cycle MLP observations, summed as an int *)
  mutable mlp_cycles : int;
  mutable critical_retired : int;
  sb : Scoreboard.t option;  (* debug-mode invariant oracle, read-only *)
  obs : Obs_tracer.t option;  (* observability tracer, write-only sink *)
}

(* The static micro-op of ROB entry [r]. *)
let rob_decoded s r = s.code.(s.rob_pc.(r))

let rob_full s = s.rob_count >= s.cfg.Cpu_config.rob_size

let rob_tail s = (s.rob_head + s.rob_count) mod s.cfg.Cpu_config.rob_size

(* ------------------------------------------------------------------ *)
(* Completion: wake dependents, release branch-stalled fetch.          *)
(* ------------------------------------------------------------------ *)

let rec wake_dependents s producer =
  let dep = Wakeup.pop s.wakeup producer in
  if dep >= 0 then begin
    s.rob_deps_left.(dep) <- s.rob_deps_left.(dep) - 1;
    if s.rob_deps_left.(dep) = 0 && s.rob_state.(dep) = st_waiting then begin
      s.rob_state.(dep) <- st_ready;
      Scheduler.mark_ready s.sched s.rob_rs_slot.(dep)
    end;
    wake_dependents s producer
  end

let rec process_completions s =
  let rob_idx = Event_wheel.pop s.wheel ~cycle:s.cycle in
  if rob_idx >= 0 then begin
    s.rob_state.(rob_idx) <- st_done;
    (match s.obs with
    | Some tr -> Obs_tracer.on_complete tr ~cycle:s.cycle ~dyn:s.rob_dyn.(rob_idx)
    | None -> ());
    wake_dependents s rob_idx;
    if s.rob_dyn.(rob_idx) = s.waiting_dyn then begin
      (* The mispredicted branch resolved: redirect the frontend. *)
      s.waiting_dyn <- -1;
      let until = s.cycle + Cpu_config.redirect_penalty in
      if until > s.fetch_blocked_until then s.fetch_blocked_until <- until
    end;
    process_completions s
  end

let process_mshr_retries s =
  for i = 0 to s.mshr_retry_len - 1 do
    let rob_idx = s.mshr_retry.(i) in
    if s.rob_state.(rob_idx) = st_ready then
      Scheduler.mark_ready s.sched s.rob_rs_slot.(rob_idx)
  done;
  s.mshr_retry_len <- 0

(* ------------------------------------------------------------------ *)
(* Retirement (in order).                                              *)
(* ------------------------------------------------------------------ *)

(* Charge [k] cycles of a stalled ROB head to its class ([k > 1] when
   quiet cycles are skipped in bulk). *)
let attribute_head_stall s head k =
  match (rob_decoded s head).Program.op with
  | Isa.Load ->
    let lvl = s.rob_level.(head) in
    if lvl = Memory_system.code_mem then s.stall_dram <- s.stall_dram + k
    else if lvl = Memory_system.code_llc then s.stall_llc <- s.stall_llc + k
    else s.stall_other_load <- s.stall_other_load + k
  | Isa.Div | Isa.Fp_div -> s.stall_long_op <- s.stall_long_op + k
  | _ -> s.stall_other <- s.stall_other + k

let rec retire s retired_now =
  if retired_now < Cpu_config.retire_width && s.rob_count > 0
     && s.retired < s.retire_stop
  then begin
    let head = s.rob_head in
    if s.rob_state.(head) <> st_done then begin
      if retired_now = 0 then attribute_head_stall s head 1
    end
    else begin
      (match s.sb with
      | Some sb ->
        Scoreboard.check_retire sb ~cycle:s.cycle ~dyn:s.rob_dyn.(head)
          ~expected:(s.start + s.retired)
      | None -> ());
      (match s.obs with
      | Some tr ->
        Obs_tracer.on_retire tr ~cycle:s.cycle ~dyn:s.rob_dyn.(head)
          ~critical:s.rob_critical.(head)
      | None -> ());
      let d = rob_decoded s head in
      (match d.Program.op with
      | Isa.Store ->
        let addr = s.rob_addr.(head) in
        Memory_system.store_commit s.mem ~cycle:s.cycle ~addr;
        if Int_table.find s.store_map addr = head then Int_table.remove s.store_map addr;
        s.sq_count <- s.sq_count - 1;
        s.stores <- s.stores + 1
      | Isa.Load ->
        s.lq_count <- s.lq_count - 1;
        s.loads <- s.loads + 1
      | _ -> ());
      if s.rob_critical.(head) then s.critical_retired <- s.critical_retired + 1;
      if d.Program.dst >= 0 && s.rename.(d.Program.dst) = head then
        s.rename.(d.Program.dst) <- -1;
      s.rob_state.(head) <- st_empty;
      s.rob_dyn.(head) <- -1;
      s.rob_head <- (head + 1) mod s.cfg.Cpu_config.rob_size;
      s.rob_count <- s.rob_count - 1;
      s.retired <- s.retired + 1;
      retire s (retired_now + 1)
    end
  end

(* ------------------------------------------------------------------ *)
(* Issue and execute.                                                  *)
(* ------------------------------------------------------------------ *)

(* Completion cycle, or -1 when the load must retry (MSHRs full). *)
let execute s rob_idx =
  match (rob_decoded s rob_idx).Program.op with
  | Isa.Load ->
    if s.rob_forward.(rob_idx) then begin
      (* Store-to-load forwarding costs an L1-hit-like latency. *)
      s.rob_level.(rob_idx) <- Memory_system.code_l1;
      s.cycle + s.l1d_latency
    end
    else begin
      let addr = s.rob_addr.(rob_idx) in
      let packed = Memory_system.load_raw s.mem ~cycle:s.cycle ~addr in
      if packed < 0 then -1
      else begin
        s.rob_level.(rob_idx) <- packed land 3;
        let ready = packed lsr 2 in
        if ready > s.cycle + 1 then ready else s.cycle + 1
      end
    end
  | Isa.Prefetch ->
    (* Software prefetch: starts the fill, completes immediately. *)
    ignore (Memory_system.load_raw s.mem ~cycle:s.cycle ~addr:s.rob_addr.(rob_idx));
    s.cycle + 1
  | op -> s.cycle + Isa.exec_latency op

(* Select-then-arbitrate: up to issue-width selections per cycle in policy
   order; a selected instruction issues only if a port of its class is
   still free, otherwise the selection slot is wasted and the instruction
   stays ready.  This is where selection order matters: under the baseline
   policy a burst of older ready instructions starves younger critical
   ones, which is precisely what CRISP's PRIO vector repairs. *)
let rec issue_loop s picks alu ld st =
  if picks < Cpu_config.issue_width then begin
    let slot = Scheduler.select s.sched in
    if slot >= 0 then begin
      (* Selection-time introspection (scoreboard checks, tracer events)
         already ran inside [Scheduler.select] via the shared hook. *)
      let rob_idx = s.rs_owner.(slot) in
      let fu = Isa.fu_of_op (rob_decoded s rob_idx).Program.op in
      let avail =
        match fu with Isa.Fu_alu -> alu | Isa.Fu_load -> ld | Isa.Fu_store -> st
      in
      if avail > 0 then begin
        let completion = execute s rob_idx in
        if completion >= 0 then begin
          Scheduler.issue s.sched slot;
          (match s.obs with
          | Some tr ->
            Obs_tracer.on_issue tr ~cycle:s.cycle ~dyn:s.rob_dyn.(rob_idx)
              ~critical:s.rob_critical.(rob_idx)
          | None -> ());
          s.rob_rs_slot.(rob_idx) <- -1;
          s.rob_state.(rob_idx) <- st_issued;
          Event_wheel.add s.wheel ~now:s.cycle ~cycle:completion rob_idx
        end
        else begin
          (* MSHRs full: the port is consumed by the replay; drop readiness
             and retry next cycle. *)
          Scheduler.unready s.sched slot;
          (match s.obs with
          | Some tr ->
            Obs_tracer.on_mshr_retry tr ~cycle:s.cycle ~dyn:s.rob_dyn.(rob_idx)
          | None -> ());
          s.mshr_retry.(s.mshr_retry_len) <- rob_idx;
          s.mshr_retry_len <- s.mshr_retry_len + 1
        end;
        match fu with
        | Isa.Fu_alu -> issue_loop s (picks + 1) (alu - 1) ld st
        | Isa.Fu_load -> issue_loop s (picks + 1) alu (ld - 1) st
        | Isa.Fu_store -> issue_loop s (picks + 1) alu ld (st - 1)
      end
      else
        (* No free port of this class: the selection slot is wasted. *)
        issue_loop s (picks + 1) alu ld st
    end
  end

let issue s =
  Scheduler.begin_cycle s.sched;
  issue_loop s 0 Cpu_config.alu_ports Cpu_config.load_ports Cpu_config.store_ports

(* ------------------------------------------------------------------ *)
(* Dispatch: rename, allocate ROB/RS/LQ/SQ, build dependency edges.    *)
(* ------------------------------------------------------------------ *)

let add_dep s consumer producer =
  if s.rob_state.(producer) < st_done then begin
    (* The consumer's edge id is its producer-operand ordinal (0..2):
       src1, src2 and store-forward each claim a distinct link. *)
    Wakeup.push s.wakeup ~producer ~consumer ~link:s.rob_deps_left.(consumer);
    s.rob_deps_left.(consumer) <- s.rob_deps_left.(consumer) + 1
  end

let dispatch_one s dyn_idx =
  let pc = Executor.pc s.trace dyn_idx in
  let d = s.code.(pc) in
  let op = d.Program.op in
  let is_load = op = Isa.Load in
  let is_store = op = Isa.Store in
  if rob_full s then false
  else if is_load && s.lq_count >= s.lq_size then false
  else if is_store && s.sq_count >= s.sq_size then false
  else begin
    let critical = s.critical_of dyn_idx in
    let slot = Scheduler.allocate_slot s.sched ~critical in
    if slot < 0 then false
    else begin
      let rob_idx = rob_tail s in
      s.rob_count <- s.rob_count + 1;
      s.rob_dyn.(rob_idx) <- dyn_idx;
      s.rob_pc.(rob_idx) <- pc;
      let addr = Executor.addr s.trace dyn_idx in
      s.rob_addr.(rob_idx) <- addr;
      s.rob_state.(rob_idx) <- st_waiting;
      s.rob_deps_left.(rob_idx) <- 0;
      Wakeup.reset s.wakeup rob_idx;
      s.rob_critical.(rob_idx) <- critical;
      s.rob_rs_slot.(rob_idx) <- slot;
      s.rob_forward.(rob_idx) <- false;
      s.rob_level.(rob_idx) <- 0;
      s.rs_owner.(slot) <- rob_idx;
      (* Register dependencies through the rename table. *)
      if d.Program.src1 >= 0 then begin
        let p = s.rename.(d.Program.src1) in
        if p >= 0 then add_dep s rob_idx p
      end;
      if d.Program.src2 >= 0 && d.Program.src2 <> d.Program.src1 then begin
        let p = s.rename.(d.Program.src2) in
        if p >= 0 then add_dep s rob_idx p
      end;
      (* Memory dependency: a load after an in-flight store to the same
         address waits for the store and then forwards. *)
      if is_load then begin
        s.lq_count <- s.lq_count + 1;
        let store_idx = Int_table.find s.store_map addr in
        if store_idx >= 0 then begin
          s.rob_forward.(rob_idx) <- true;
          add_dep s rob_idx store_idx
        end
      end;
      if is_store then begin
        s.sq_count <- s.sq_count + 1;
        Int_table.replace s.store_map addr rob_idx
      end;
      if d.Program.dst >= 0 then s.rename.(d.Program.dst) <- rob_idx;
      if s.rob_deps_left.(rob_idx) = 0 then begin
        s.rob_state.(rob_idx) <- st_ready;
        Scheduler.mark_ready s.sched slot
      end;
      (match s.obs with
      | Some tr ->
        Obs_tracer.on_dispatch tr ~cycle:s.cycle ~dyn:dyn_idx ~rob:rob_idx ~critical
      | None -> ());
      true
    end
  end

let rec dispatch_loop s dispatched =
  if dispatched < Cpu_config.fetch_width && s.fq_len > 0
     && s.fq_ready.(s.fq_head) <= s.cycle
     && dispatch_one s s.fq_dyn.(s.fq_head)
  then begin
    s.fq_head <- (s.fq_head + 1) mod s.fq_cap;
    s.fq_len <- s.fq_len - 1;
    dispatch_loop s (dispatched + 1)
  end

let dispatch s = dispatch_loop s 0

(* ------------------------------------------------------------------ *)
(* Fetch: follow the trace, model icache, predictors and redirects.    *)
(* ------------------------------------------------------------------ *)

(* Handle the control-flow consequences of fetching [d].  Returns [`Continue]
   to keep fetching this cycle, [`End_group] after a taken transfer,
   [`Blocked] when fetch must stop until a resolution or bubble ends. *)
let obs_redirect s dyn_idx kind =
  match s.obs with
  | Some tr -> Obs_tracer.on_redirect tr ~cycle:s.cycle ~dyn:dyn_idx ~kind
  | None -> ()

let fetch_control s dyn_idx pc =
  match s.code.(pc).Program.op with
  | Isa.Branch _ ->
    s.branches <- s.branches + 1;
    let taken = Executor.taken s.trace dyn_idx in
    let predicted = Tage.predict_and_update s.tage ~pc ~taken in
    if predicted <> taken then begin
      s.branch_mispredicts <- s.branch_mispredicts + 1;
      obs_redirect s dyn_idx `Mispredict;
      s.waiting_dyn <- dyn_idx;
      `Blocked
    end
    else if taken then begin
      (* Correctly predicted taken: the target must come from the BTB. *)
      let target = Executor.next_pc s.trace dyn_idx in
      let target_ok = Btb.find_target s.btb ~pc = target in
      Btb.update s.btb ~pc ~target;
      if target_ok then `End_group
      else begin
        s.btb_misses <- s.btb_misses + 1;
        obs_redirect s dyn_idx `Btb_miss;
        s.fetch_blocked_until <- s.cycle + Cpu_config.btb_miss_penalty;
        `Blocked
      end
    end
    else `Continue
  | Isa.Jump -> `End_group
  | Isa.Call ->
    Ras.push s.ras (pc + 1);
    `End_group
  | Isa.Ret ->
    if Ras.pop_value s.ras = Executor.next_pc s.trace dyn_idx then `End_group
    else begin
      s.ras_mispredicts <- s.ras_mispredicts + 1;
      obs_redirect s dyn_idx `Ras_mispredict;
      s.waiting_dyn <- dyn_idx;
      `Blocked
    end
  | _ -> `Continue

let rec fetch_loop s n fetched =
  if fetched < Cpu_config.fetch_width && s.fetch_idx < n
     && s.fq_len < s.fq_cap
  then begin
    let dyn_idx = s.fetch_idx in
    let pc = Executor.pc s.trace dyn_idx in
    let addr = Layout.addr_of s.layout pc in
    let line = addr / line_bytes in
    if line <> s.current_line then begin
      let ready = Memory_system.fetch_raw s.mem ~cycle:s.cycle ~addr lsr 2 in
      if ready > s.cycle + s.l1i_latency then
        (* Instruction cache miss: fetch resumes when the line arrives. *)
        s.fetch_blocked_until <- ready
      else begin
        s.current_line <- line;
        fetch_one s n fetched dyn_idx pc
      end
    end
    else fetch_one s n fetched dyn_idx pc
  end

and fetch_one s n fetched dyn_idx pc =
  let tail = (s.fq_head + s.fq_len) mod s.fq_cap in
  s.fq_dyn.(tail) <- dyn_idx;
  s.fq_ready.(tail) <- s.cycle + Cpu_config.frontend_depth;
  s.fq_len <- s.fq_len + 1;
  (match s.obs with
  | Some tr -> Obs_tracer.on_fetch tr ~cycle:s.cycle ~dyn:dyn_idx ~pc
  | None -> ());
  s.fetch_idx <- s.fetch_idx + 1;
  match fetch_control s dyn_idx pc with
  | `Continue -> fetch_loop s n (fetched + 1)
  | `End_group | `Blocked -> ()

let fetch s =
  if s.cycle >= s.fetch_blocked_until && s.waiting_dyn < 0 then
    fetch_loop s (Executor.length s.trace) 0

(* FDIP: run ahead of fetch along the fetch target queue and prefetch
   instruction lines.  Cannot run past an unresolved misprediction. *)
let rec fdip_loop s limit budget scanned =
  if budget > 0 && scanned < 64 && s.fdip_idx < limit then begin
    let addr = Layout.addr_of s.layout (Executor.pc s.trace s.fdip_idx) in
    let budget =
      if addr / line_bytes <> s.current_line
         && not (Memory_system.probe_inst s.mem ~addr)
      then begin
        Memory_system.prefetch_inst s.mem ~cycle:s.cycle ~addr;
        budget - 1
      end
      else budget
    in
    s.fdip_idx <- s.fdip_idx + 1;
    fdip_loop s limit budget (scanned + 1)
  end

let fdip_limit s =
  if s.waiting_dyn >= 0 then s.waiting_dyn + 1
  else
    let n = Executor.length s.trace in
    let ftq_end = s.fetch_idx + Cpu_config.ftq_entries in
    if ftq_end < n then ftq_end else n

let fdip s =
  if s.fdip_idx < s.fetch_idx then s.fdip_idx <- s.fetch_idx;
  fdip_loop s (fdip_limit s) 2 0

(* ------------------------------------------------------------------ *)
(* Top level.                                                          *)
(* ------------------------------------------------------------------ *)

(* Entries in [st_waiting] or [st_ready] are exactly those resident in a
   reservation-station slot. *)
let rec count_rs_resident s i acc =
  if i < 0 then acc
  else
    let st = s.rob_state.(i) in
    count_rs_resident s (i - 1)
      (if st = st_waiting || st = st_ready then acc + 1 else acc)

(* Microarchitectural warming state carried through functional
   fast-forward: the memory hierarchy plus the frontend predictors, and
   the trace position they have been warmed up to.  Every detail run
   adopts one (a fresh carrier is a cold start), so a window opened
   after fast-forward starts from warmed state instead of cold tables. *)
type warm = {
  wmem : Memory_system.t;
  wtage : Tage.t;
  wbtb : Btb.t;
  wras : Ras.t;
  mutable wpos : int;  (* next dyn index to warm *)
  mutable wline : int;  (* current icache line, -1 = none *)
}

let warm_create cfg =
  { wmem = Memory_system.create cfg.Cpu_config.mem;
    wtage = Tage.create ();
    wbtb = Btb.create ~entries:Cpu_config.btb_entries ();
    wras = Ras.create ~depth:Cpu_config.ras_depth ();
    wpos = 0;
    wline = -1 }

let warm_pos w = w.wpos

let warm_touch w layout trace i =
  (* Mirror the detail fetch stage's icache behaviour: one fetch per
     distinct consecutive line, not one per micro-op. *)
  let pc = Executor.pc trace i in
  let addr = Layout.addr_of layout pc in
  let line = addr / line_bytes in
  if line <> w.wline then begin
    ignore (Memory_system.fetch_functional w.wmem ~addr);
    w.wline <- line
  end;
  (* The predictor updates [fetch_control] performs, without their
     timing consequences.  The BTB learns a target only on a correctly
     predicted taken branch (a mispredict redirects before the BTB is
     consulted), so its contents converge to what a detail run reaching
     the same point would hold. *)
  (match Executor.op trace i with
  | Isa.Branch _ ->
    let taken = Executor.taken trace i in
    let predicted = Tage.predict_and_update w.wtage ~pc ~taken in
    if predicted && taken then Btb.update w.wbtb ~pc ~target:(Executor.next_pc trace i)
  | Isa.Call -> Ras.push w.wras (pc + 1)
  | Isa.Ret -> ignore (Ras.pop_value w.wras)
  | Isa.Load | Isa.Prefetch ->
    ignore (Memory_system.load_functional w.wmem ~addr:(Executor.addr trace i))
  | Isa.Store -> Memory_system.warm_store w.wmem ~addr:(Executor.addr trace i)
  | _ -> ());
  w.wpos <- w.wpos + 1

let layout_for ?(criticality = No_tags) (trace : Executor.t) =
  let critical =
    match criticality with
    | Static_tags f -> f
    | No_tags | Dynamic_tags _ -> fun _ -> false
  in
  Layout.compute ~critical trace.Executor.prog

let make_state ?(criticality = No_tags) ?tracer ~warm ~start cfg
    (trace : Executor.t) =
  let layout = layout_for ~criticality trace in
  let critical_of =
    match criticality with
    | No_tags -> fun _ -> false
    | Static_tags f -> fun dyn_idx -> f (Executor.pc trace dyn_idx)
    | Dynamic_tags f -> f
  in
  let rob_size = cfg.Cpu_config.rob_size in
  let sq_size = Cpu_config.sq_size cfg in
  let fq_cap = max 32 (Cpu_config.fetch_width * (Cpu_config.frontend_depth + 3)) in
  let mem_params = Memory_system.params warm.wmem in
  let s =
    { cfg;
      trace;
      code = trace.Executor.prog.Program.code;
      layout;
      critical_of;
      start;
      mem = warm.wmem;
      tage = warm.wtage;
      btb = warm.wbtb;
      ras = warm.wras;
      sched =
        Scheduler.create ~seed:Cpu_config.seed ~slots:cfg.Cpu_config.rs_size
          ~span:rob_size cfg.Cpu_config.policy;
      rob_dyn = Array.make rob_size (-1);
      rob_pc = Array.make rob_size 0;
      rob_addr = Array.make rob_size (-1);
      rob_state = Array.make rob_size st_empty;
      rob_deps_left = Array.make rob_size 0;
      rob_critical = Array.make rob_size false;
      rob_rs_slot = Array.make rob_size (-1);
      rob_forward = Array.make rob_size false;
      rob_level = Array.make rob_size 0;
      wakeup = Wakeup.create rob_size;
      rob_head = 0;
      rob_count = 0;
      rename = Array.make Isa.num_regs (-1);
      rs_owner = Array.make cfg.Cpu_config.rs_size (-1);
      store_map = Int_table.create sq_size;
      lq_size = Cpu_config.lq_size cfg;
      sq_size;
      lq_count = 0;
      sq_count = 0;
      wheel = Event_wheel.create ~horizon:wheel_horizon ();
      mshr_retry = Array.make cfg.Cpu_config.rs_size 0;
      mshr_retry_len = 0;
      fq_dyn = Array.make fq_cap 0;
      fq_ready = Array.make fq_cap 0;
      fq_cap;
      fq_head = 0;
      fq_len = 0;
      l1d_latency = mem_params.Memory_system.l1d_latency;
      l1i_latency = mem_params.Memory_system.l1i_latency;
      fetch_idx = start;
      fetch_blocked_until = 0;
      waiting_dyn = -1;
      current_line = -1;
      fdip_idx = start;
      cycle = 0;
      retired = 0;
      retire_stop = max_int;
      loads = 0;
      stores = 0;
      branches = 0;
      branch_mispredicts = 0;
      btb_misses = 0;
      ras_mispredicts = 0;
      stall_dram = 0;
      stall_llc = 0;
      stall_other_load = 0;
      stall_long_op = 0;
      stall_other = 0;
      mlp_sum_units = 0;
      mlp_cycles = 0;
      critical_retired = 0;
      sb = (if cfg.Cpu_config.scoreboard then Some (Scoreboard.create cfg) else None);
      obs = tracer }
  in
  (* Both observers share the scheduler's single instrumentation hook
     (selection is the only pipeline event born inside [Scheduler]). *)
  (match s.sb, s.obs with
  | None, None -> ()
  | sb, obs ->
    Scheduler.set_on_select s.sched
      (Some
         (fun ~slot ~prio_override ->
           let rob_idx = s.rs_owner.(slot) in
           (match sb with
           | Some sb ->
             Scoreboard.check_select sb s.sched ~cycle:s.cycle ~slot
               ~ready:(s.rob_state.(rob_idx) = st_ready)
               ~deps_left:s.rob_deps_left.(rob_idx)
           | None -> ());
           match obs with
           | Some tr ->
             Obs_tracer.on_select tr ~cycle:s.cycle ~dyn:s.rob_dyn.(rob_idx)
               ~prio_override
           | None -> ())));
  (match s.obs with
  | Some tr -> Memory_system.set_tracer s.mem (Some tr)
  | None -> ());
  s

(* ------------------------------------------------------------------ *)
(* Quiet-cycle skip.                                                   *)
(* ------------------------------------------------------------------ *)

(* Whether the fetch-queue head has the ROB, LQ/SQ and RS space to
   dispatch.  Only retirement and issue free that space. *)
let fq_head_fits s =
  s.fq_len > 0 && (not (rob_full s)) && Scheduler.free_slots s.sched > 0
  &&
  match Executor.op s.trace s.fq_dyn.(s.fq_head) with
  | Isa.Load -> s.lq_count < s.lq_size
  | Isa.Store -> s.sq_count < s.sq_size
  | _ -> true

(* Called with [s.cycle] the next cycle to step.  A stage can act at
   cycle c only if an MSHR retry is queued, an RS slot is ready, the ROB
   head is done, FDIP has lines left, the fetch-queue head fits and is
   due by c, or fetch is free to run by c.  None of that changes without
   a completion (a wheel event), so when nothing can act now nothing can
   before the earliest of: the next due event, the head's or fetch's own
   ready cycle, and the next demand fill (which keeps [outstanding_misses]
   constant over the jump).  Those cycles would each charge the stalled
   head's class and observe the same MLP; charge them in bulk and jump.
   The cycle budget caps the jump, so the no-progress check fires at the
   cycle it would have fired at when stepping. *)
let skip_quiet s ~cycle_budget =
  let c = s.cycle in
  if s.mshr_retry_len = 0
     && (not (Scheduler.any_ready s.sched))
     && (s.rob_count = 0 || s.rob_state.(s.rob_head) <> st_done)
     && s.fdip_idx >= fdip_limit s
  then begin
    let fits = fq_head_fits s in
    let fetch_free =
      s.waiting_dyn < 0 && s.fetch_idx < Executor.length s.trace && s.fq_len < s.fq_cap
    in
    let limit = cycle_budget + 1 in
    let limit =
      if fits && s.fq_ready.(s.fq_head) < limit then s.fq_ready.(s.fq_head) else limit
    in
    let limit =
      if fetch_free && s.fetch_blocked_until < limit then s.fetch_blocked_until
      else limit
    in
    let fill = Memory_system.next_fill s.mem ~cycle:c in
    let limit = if fill < limit then fill else limit in
    let until = Event_wheel.next_due s.wheel ~from:c ~limit in
    if until > c then begin
      let k = until - c in
      if s.rob_count > 0 && s.retired < s.retire_stop then
        attribute_head_stall s s.rob_head k;
      let outstanding = Memory_system.outstanding_misses s.mem ~cycle:c in
      if outstanding > 0 then begin
        s.mlp_sum_units <- s.mlp_sum_units + (outstanding * k);
        s.mlp_cycles <- s.mlp_cycles + k
      end;
      s.cycle <- until
    end
  end

(* Advance the pipeline until [target] instructions (counted from state
   creation) have retired.  Without a tracer or scoreboard, quiet cycles
   are skipped in bulk ([skip_quiet]); observers see every cycle, and the
   statistics are the same either way. *)
let run_cycles s ~target ~cycle_budget =
  let skip = Option.is_none s.obs && Option.is_none s.sb in
  while s.retired < target do
    if s.cycle > cycle_budget then
      failwith
        (Printf.sprintf
           "Cpu_core.run: no forward progress (cycle %d, retired %d/%d) — model bug"
           s.cycle s.retired target);
    process_completions s;
    process_mshr_retries s;
    retire s 0;
    issue s;
    dispatch s;
    fetch s;
    fdip s;
    let outstanding = Memory_system.outstanding_misses s.mem ~cycle:s.cycle in
    if outstanding > 0 then begin
      s.mlp_sum_units <- s.mlp_sum_units + outstanding;
      s.mlp_cycles <- s.mlp_cycles + 1
    end;
    (match s.obs with
    | Some tr ->
      Obs_tracer.on_cycle tr ~rob_occupancy:s.rob_count
        ~rs_occupancy:(Scheduler.occupancy s.sched)
    | None -> ());
    (match s.sb with
    | Some sb ->
      Scoreboard.check_cycle sb s.sched ~cycle:s.cycle
        ~rs_resident:(count_rs_resident s (s.cfg.Cpu_config.rob_size - 1) 0)
    | None -> ());
    s.cycle <- s.cycle + 1;
    (* After the last retirement the loop ends; a skip there would run
       the counter to the budget. *)
    if skip && s.retired < target then skip_quiet s ~cycle_budget
  done

(* The one place core state becomes a [Cpu_stats.t]: cumulative
   counters since state creation. *)
let snapshot s =
  { Cpu_stats.cycles = s.cycle;
    retired = s.retired;
    loads = s.loads;
    stores = s.stores;
    branches = s.branches;
    branch_mispredicts = s.branch_mispredicts;
    btb_misses = s.btb_misses;
    ras_mispredicts = s.ras_mispredicts;
    head_stalls =
      { Cpu_stats.dram_load = s.stall_dram;
        llc_load = s.stall_llc;
        other_load = s.stall_other_load;
        long_op = s.stall_long_op;
        other = s.stall_other };
    (* Each per-cycle observation is an integer, so the int sum converts
       exactly: bit-identical to the old float accumulation. *)
    mlp_sum = float_of_int s.mlp_sum_units;
    mlp_cycles = s.mlp_cycles;
    critical_retired = s.critical_retired;
    mem = Memory_system.stats s.mem }

let run_window ?criticality ?tracer ?warm ~start ~warmup ~measure cfg
    (trace : Executor.t) =
  let n = Executor.length trace in
  if start < 0 || start > n then invalid_arg "Cpu_core.run_window: start out of range";
  if warmup < 0 || measure <= 0 then
    invalid_arg "Cpu_core.run_window: warmup must be >= 0 and measure > 0";
  let avail = n - start in
  let warmup = if warmup < avail then warmup else avail in
  let target =
    let t = warmup + measure in
    if t < avail && t >= 0 (* t < 0 on overflow *) then t else avail
  in
  let warm = match warm with Some w -> w | None -> warm_create cfg in
  let s = make_state ?criticality ?tracer ~warm ~start cfg trace in
  (* The window's cycle counter starts at zero; state adopted from a warm
     carrier may hold stamps from a previous window's time base, which
     must not read as in-flight work here (a no-op on a fresh carrier). *)
  Memory_system.quiesce s.mem;
  let cycle_budget = (400 * target) + 100_000 in
  (* Retirement is width-granular; the retire ceiling makes both window
     boundaries exact, so a window measures precisely the instructions
     it was asked for. *)
  s.retire_stop <- warmup;
  run_cycles s ~target:warmup ~cycle_budget;
  let before = snapshot s in
  s.retire_stop <- target;
  run_cycles s ~target ~cycle_budget;
  warm.wpos <- start + s.retired;
  warm.wline <- -1;
  Cpu_stats.sub (snapshot s) before

let run ?criticality ?tracer cfg (trace : Executor.t) =
  let n = Executor.length trace in
  run_window ?criticality ?tracer ~start:0 ~warmup:0 ~measure:(max 1 n) cfg trace
