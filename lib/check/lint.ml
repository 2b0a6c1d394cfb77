type severity =
  | Error
  | Warning

type rule =
  | Bad_target
  | Target_exits
  | Undefined_use
  | Self_dependency
  | Unreachable
  | Negative_address
  | Oob_address
  | Oob_range
  | Degenerate_branch
  | Bad_register
  | Dead_store
  | Dataflow_unreachable
  | Invariant_address

type diag = {
  pc : int;
  severity : severity;
  rule : rule;
  message : string;
}

let rule_name = function
  | Bad_target -> "bad-target"
  | Target_exits -> "target-exits"
  | Undefined_use -> "undefined-register-use"
  | Self_dependency -> "self-dependency"
  | Unreachable -> "unreachable-code"
  | Negative_address -> "negative-address"
  | Oob_address -> "out-of-bounds-address"
  | Oob_range -> "out-of-bounds-range"
  | Degenerate_branch -> "degenerate-branch"
  | Bad_register -> "bad-register"
  | Dead_store -> "dead-store"
  | Dataflow_unreachable -> "dataflow-unreachable"
  | Invariant_address -> "loop-invariant-address"

let pp_diag fmt d =
  Format.fprintf fmt "%s at pc %d [%s]: %s"
    (match d.severity with Error -> "error" | Warning -> "warning")
    d.pc (rule_name d.rule) d.message

type image_bounds = {
  lo : int;
  hi : int;
}

(* One cache line of slack on either side keeps intra-structure padding
   (Mem_builder line-aligns every allocation) from producing noise. *)
let slack_bytes = 64

let bounds_of_image image =
  Option.map (fun (lo, hi) -> { lo; hi }) (Mem_image.bounds image)

let errors ds = List.filter (fun d -> d.severity = Error) ds

(* ------------------------------------------------------------------ *)
(* The lint driver                                                     *)
(* ------------------------------------------------------------------ *)

module DefiniteSolver = Dataflow.Solver (Dataflow.Definite)
module RangesSolver = Dataflow.Solver (Dataflow.Ranges)
module LiveSolver = Dataflow.Solver (Dataflow.Live)
module ReachSolver = Dataflow.Solver (Dataflow.Reaching)

let used_regs (d : Program.decoded) =
  let acc = if d.Program.src1 >= 0 then [ d.Program.src1 ] else [] in
  if d.Program.src2 >= 0 && d.Program.src2 <> d.Program.src1 then d.Program.src2 :: acc
  else acc

let severity_rank = function Error -> 0 | Warning -> 1

let sort_diags ds =
  List.sort
    (fun a b ->
      let c = compare a.pc b.pc in
      if c <> 0 then c
      else
        let c = compare (severity_rank a.severity) (severity_rank b.severity) in
        if c <> 0 then c else compare (rule_name a.rule) (rule_name b.rule))
    ds

let mem_base (d : Program.decoded) =
  match d.Program.op with
  | Isa.Load | Isa.Prefetch -> Some d.Program.src1
  | Isa.Store -> Some d.Program.src2
  | _ -> None

let check ?(initialised = []) ?bounds ?entry (prog : Program.t) =
  let code = prog.Program.code in
  let n = Array.length code in
  let diags = ref [] in
  let emit pc severity rule fmt =
    Format.kasprintf (fun message -> diags := { pc; severity; rule; message } :: !diags)
      fmt
  in
  let reg_ok r = r = -1 || (r >= 0 && r < Isa.num_regs) in
  Array.iteri
    (fun pc (d : Program.decoded) ->
      List.iter
        (fun (field, r) ->
          if not (reg_ok r) then
            emit pc Error Bad_register "%s register %d outside the %d-register file"
              field r Isa.num_regs)
        [ ("destination", d.Program.dst); ("source-1", d.Program.src1);
          ("source-2", d.Program.src2) ];
      match d.Program.op with
      | Isa.Branch _ | Isa.Jump | Isa.Call ->
        let t = d.Program.target in
        if t < 0 || t > n then
          emit pc Error Bad_target "control transfer to pc %d outside [0, %d]" t n
        else if t = n then
          emit pc Warning Target_exits
            "control transfer to pc %d (= code length) ends execution" t
        else if
          (match d.Program.op with Isa.Branch _ -> true | _ -> false) && t = pc + 1
        then
          emit pc Warning Degenerate_branch
            "conditional branch to its own fall-through (pc %d)" t
      | _ -> ())
    code;
  (* Decoded register fields outside the file would index out of bounds
     in the dataflow domains; stop at the structural errors. *)
  if List.exists (fun d -> d.rule = Bad_register) !diags then sort_diags !diags
  else begin
    let cfg = Dataflow.Cfg.build code in
    let reachable = cfg.Dataflow.Cfg.reachable in
    Array.iteri
      (fun pc r ->
        if not r then emit pc Warning Unreachable "unreachable from the entry point")
      reachable;
    (* Register dataflow on the reachable portion only: diagnostics about
       dead code would be double reports. *)
    let defined =
      DefiniteSolver.solve cfg ~init:(Dataflow.Definite.init ())
        ~entry:(Dataflow.Definite.entry_of initialised)
    in
    let init_set = Array.make Isa.num_regs false in
    List.iter (fun r -> if r >= 0 && r < Isa.num_regs then init_set.(r) <- true)
      initialised;
    let producers = Array.make Isa.num_regs [] in
    Array.iteri
      (fun pc (d : Program.decoded) ->
        let dst = d.Program.dst in
        if reachable.(pc) && dst >= 0 && dst < Isa.num_regs then
          producers.(dst) <- pc :: producers.(dst))
      code;
    Array.iteri
      (fun pc (d : Program.decoded) ->
        if reachable.(pc) then
          List.iter
            (fun r ->
              if r < Isa.num_regs && not defined.Dataflow.before.(pc).(r) then
                if
                  (not init_set.(r))
                  && d.Program.dst = r
                  && List.for_all (fun p -> p = pc) producers.(r)
                then
                  emit pc Error Self_dependency
                    "r%d is read only by the single instruction that defines it and \
                     has no declared initial value — a self-carried register must \
                     start from an explicit reg_init entry"
                    r
                else
                  emit pc Warning Undefined_use
                    "r%d may be read before any definition (relies on the implicit \
                     zero; declare it in reg_init)"
                    r)
            (used_regs d))
      code;
    (* Value-range analysis: footprint rules and feasibility. *)
    let entry =
      match entry with
      | Some e -> e
      | None ->
        (* Registers start at zero; declared live-ins have unknown values. *)
        Dataflow.Ranges.Env
          (Array.init Isa.num_regs (fun r ->
               if init_set.(r) then Dataflow.Interval.top
               else Dataflow.Interval.const 0))
    in
    let ranges = RangesSolver.solve cfg ~init:Dataflow.Ranges.Unreached ~entry in
    Array.iteri
      (fun pc (d : Program.decoded) ->
        if reachable.(pc) then begin
          (match ranges.Dataflow.before.(pc) with
          | Dataflow.Ranges.Unreached ->
            emit pc Warning Dataflow_unreachable
              "reachable in the CFG but on no feasible path (every incoming \
               branch edge is statically contradicted)"
          | Dataflow.Ranges.Env _ -> ());
          match Dataflow.Ranges.addr_interval ranges.Dataflow.before.(pc) d with
          | None -> ()
          | Some i ->
            let const_addr = Dataflow.Interval.is_const i in
            if i.Dataflow.Interval.hi < 0 then
              emit pc Error Negative_address "effective address %s is negative"
                (match const_addr with
                | Some a -> string_of_int a
                | None -> Format.asprintf "%a" Dataflow.Interval.pp i)
            else begin
              (* Only reads are checked against the image: a load (or
                 prefetch) of never-written memory silently yields zero,
                 which is almost certainly a mis-computed address, whereas a
                 store past the image is how output buffers are born. *)
              match (bounds, d.Program.op) with
              | Some { lo; hi }, (Isa.Load | Isa.Prefetch) -> (
                match const_addr with
                | Some addr ->
                  if addr < lo - slack_bytes || addr >= hi + slack_bytes then
                    emit pc Warning Oob_address
                      "constant load address 0x%x outside the initialised image \
                       [0x%x, 0x%x)"
                      addr lo hi
                | None ->
                  if
                    Dataflow.Interval.bounded i
                    && (i.Dataflow.Interval.lo >= hi + slack_bytes
                       || i.Dataflow.Interval.hi < lo - slack_bytes)
                  then
                    emit pc Warning Oob_range
                      "load address range %a lies entirely outside the \
                       initialised image [0x%x, 0x%x)"
                      Dataflow.Interval.pp i lo hi)
              | _ -> ()
            end
        end)
      code;
    (* Dead single-cycle register writes.  Loads and long-latency ops
       (Mul/Div/Fp) model port pressure and wakeup timing even when the
       value goes unread — the kernels use exactly that pattern for
       payload bursts — so only Li/Alu results with no live reader are
       reported. *)
    let live =
      LiveSolver.solve ~direction:Dataflow.Backward cfg
        ~init:(Dataflow.Live.init ()) ~entry:(Dataflow.Live.init ())
    in
    Array.iteri
      (fun pc (d : Program.decoded) ->
        match d.Program.op with
        | (Isa.Li | Isa.Alu _)
          when reachable.(pc) && d.Program.dst >= 0
               && not live.Dataflow.before.(pc).(d.Program.dst) ->
          emit pc Warning Dead_store
            "r%d is overwritten before any instruction reads this value"
            d.Program.dst
        | _ -> ())
      code;
    (* Loop-invariant address computation: a single-cycle ALU op inside a
       loop, the only in-loop definition of its destination, whose
       operands are all defined outside the loop and whose result is
       consumed as a memory base inside the loop — recomputed every
       iteration for the same address. *)
    let reach =
      ReachSolver.solve cfg ~init:(Dataflow.Reaching.init ())
        ~entry:(Dataflow.Reaching.entry ())
    in
    let loops = Dataflow.Cfg.loops cfg in
    let flagged = Hashtbl.create 8 in
    List.iter
      (fun (header, body) ->
        Array.iteri
          (fun pc (d : Program.decoded) ->
            if
              body.(pc) && reachable.(pc) && not (Hashtbl.mem flagged pc)
              && (match d.Program.op with Isa.Alu _ -> true | _ -> false)
              && d.Program.dst >= 0
            then begin
              let invariant_sources =
                List.for_all
                  (fun r ->
                    Dataflow.Reaching.S.for_all
                      (fun def -> def < 0 || not body.(def))
                      reach.Dataflow.before.(pc).(r))
                  (used_regs d)
              in
              let sole_in_loop_def =
                Array.for_all Fun.id
                  (Array.mapi
                     (fun pc' (d' : Program.decoded) ->
                       pc' = pc || (not body.(pc'))
                       || d'.Program.dst <> d.Program.dst)
                     code)
              in
              let feeds_mem_base =
                let found = ref false in
                Array.iteri
                  (fun pc' (d' : Program.decoded) ->
                    if body.(pc') then
                      match mem_base d' with
                      | Some r
                        when r = d.Program.dst
                             && Dataflow.Reaching.S.mem pc
                                  reach.Dataflow.before.(pc').(r) ->
                        found := true
                      | _ -> ())
                  code;
                !found
              in
              if invariant_sources && sole_in_loop_def && feeds_mem_base then begin
                Hashtbl.add flagged pc ();
                emit pc Warning Invariant_address
                  "address computation into r%d is invariant in the loop headed \
                   at pc %d — hoist it out of the loop"
                  d.Program.dst header
              end
            end)
          code)
      loops;
    sort_diags !diags
  end

let check_program ?initialised ?bounds prog = check ?initialised ?bounds prog

let check_workload (w : Workload.t) =
  let initialised = List.map fst w.Workload.reg_init in
  let bounds = bounds_of_image w.Workload.mem_init in
  check ~initialised ?bounds
    ~entry:(Dataflow.Ranges.entry_of w.Workload.reg_init)
    w.Workload.program
