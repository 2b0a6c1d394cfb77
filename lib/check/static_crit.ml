type reason =
  | Pointer_chase
  | Indirect
  | Data_branch

type candidate = {
  pc : int;
  reason : reason;
  header : int;
  slice : int list;
  cost : int;
}

type t = {
  predicted : bool array;
  candidates : candidate list;
}

let cache_resident_bytes = 4096

let load_latency = 20

module IntSet = Set.Make (Int)
module RangesSolver = Dataflow.Solver (Dataflow.Ranges)
module ReachSolver = Dataflow.Solver (Dataflow.Reaching)

(* Backward closure of the registers feeding [seeds], through reaching
   definitions restricted to the loop body, following deps through
   memory via may-alias store→load edges (a store expands through both
   its value and base registers, mirroring Deps.follow_memory). *)
let closure code ~(reach : Dataflow.Reaching.t Dataflow.result)
    ~(foot : Dataflow.Footprint.t) ~body ~stores_in_body seeds =
  let acc = ref IntSet.empty in
  let work = ref seeds in
  let push_defs at reg =
    if reg >= 0 then
      Dataflow.Reaching.S.iter
        (fun d -> if d >= 0 && body.(d) && not (IntSet.mem d !acc) then
            work := d :: !work)
        reach.Dataflow.before.(at).(reg)
  in
  while !work <> [] do
    match !work with
    | [] -> ()
    | d :: rest ->
      work := rest;
      if not (IntSet.mem d !acc) then begin
        acc := IntSet.add d !acc;
        let i : Program.decoded = code.(d) in
        push_defs d i.Program.src1;
        push_defs d i.Program.src2;
        if i.Program.op = Isa.Load then
          match foot.(d) with
          | None -> ()
          | Some load_addr ->
            List.iter
              (fun st ->
                match foot.(st) with
                | Some st_addr
                  when Dataflow.Footprint.may_overlap st_addr load_addr
                       && not (IntSet.mem st !acc) ->
                  work := st :: !work
                | _ -> ())
              stores_in_body
      end
  done;
  !acc

let slice_cost code slice =
  List.fold_left
    (fun acc pc ->
      let op = code.(pc).Program.op in
      acc + if op = Isa.Load then load_latency else Isa.exec_latency op)
    0 slice

let analyze (w : Workload.t) =
  let code = w.Workload.program.Program.code in
  let n = Array.length code in
  let cfg = Dataflow.Cfg.build code in
  let ranges =
    RangesSolver.solve cfg ~init:Dataflow.Ranges.Unreached
      ~entry:(Dataflow.Ranges.entry_of w.Workload.reg_init)
  in
  let foot = Dataflow.Footprint.compute cfg ~ranges in
  let reach =
    ReachSolver.solve cfg ~init:(Dataflow.Reaching.init ())
      ~entry:(Dataflow.Reaching.entry ())
  in
  let loops = Dataflow.Cfg.loops cfg in
  let innermost pc =
    List.find_opt (fun (_, body) -> body.(pc)) loops
  in
  let cache_resident pc =
    match foot.(pc) with
    | Some i -> (
      match Dataflow.Interval.width i with
      | Some wdt -> wdt <= cache_resident_bytes
      | None -> false)
    | None -> false
  in
  let candidates = ref [] in
  for pc = 0 to n - 1 do
    if cfg.Dataflow.Cfg.reachable.(pc) then begin
      let d = code.(pc) in
      match (d.Program.op, innermost pc) with
      | Isa.Load, Some (header, body) ->
        let stores_in_body =
          List.filter
            (fun st -> body.(st) && code.(st).Program.op = Isa.Store)
            (List.init n Fun.id)
        in
        let seed_defs =
          Dataflow.Reaching.S.fold
            (fun def acc -> if def >= 0 && body.(def) then def :: acc else acc)
            reach.Dataflow.before.(pc).(d.Program.src1)
            []
        in
        let cls = closure code ~reach ~foot ~body ~stores_in_body seed_defs in
        let is_chase = IntSet.mem pc cls in
        let has_load =
          IntSet.exists (fun p -> code.(p).Program.op = Isa.Load) cls
        in
        let reason =
          if is_chase then Some Pointer_chase
          else if has_load then Some Indirect
          else None (* affine/strided: a stride prefetcher's territory *)
        in
        (match reason with
        | Some reason when not (cache_resident pc) ->
          let slice = List.sort compare (pc :: IntSet.elements (IntSet.remove pc cls)) in
          candidates :=
            { pc; reason; header; slice; cost = slice_cost code slice }
            :: !candidates
        | _ -> ())
      | Isa.Branch _, Some (header, body) when d.Program.target <> pc + 1 ->
        let stores_in_body =
          List.filter
            (fun st -> body.(st) && code.(st).Program.op = Isa.Store)
            (List.init n Fun.id)
        in
        let seed reg =
          if reg < 0 then []
          else
            Dataflow.Reaching.S.fold
              (fun def acc -> if def >= 0 && body.(def) then def :: acc else acc)
              reach.Dataflow.before.(pc).(reg)
              []
        in
        let cls =
          closure code ~reach ~foot ~body ~stores_in_body
            (seed d.Program.src1 @ seed d.Program.src2)
        in
        let has_load =
          IntSet.exists (fun p -> code.(p).Program.op = Isa.Load) cls
        in
        if has_load then begin
          let slice = List.sort compare (pc :: IntSet.elements (IntSet.remove pc cls)) in
          candidates :=
            { pc; reason = Data_branch; header; slice;
              cost = slice_cost code slice }
            :: !candidates
        end
      | _ -> ()
    end
  done;
  let candidates = List.sort (fun a b -> compare a.pc b.pc) !candidates in
  let predicted = Array.make n false in
  List.iter
    (fun c -> List.iter (fun p -> predicted.(p) <- true) c.slice)
    candidates;
  { predicted; candidates }

type comparison = {
  predicted_pcs : int;
  tagged_pcs : int;
  overlap_pcs : int;
  precision : float;
  recall : float;
  jaccard : float;
  load_roots : int;
  load_roots_hit : int;
}

let compare_tagging st (tg : Tagger.t) =
  let n = min (Array.length st.predicted) (Array.length tg.Tagger.critical) in
  let predicted_pcs = ref 0 and tagged_pcs = ref 0 and overlap_pcs = ref 0 in
  let union = ref 0 in
  for pc = 0 to n - 1 do
    let p = st.predicted.(pc) and t = tg.Tagger.critical.(pc) in
    if p then incr predicted_pcs;
    if t then incr tagged_pcs;
    if p && t then incr overlap_pcs;
    if p || t then incr union
  done;
  let ratio a b = if b = 0 then 1.0 else float_of_int a /. float_of_int b in
  let load_roots, load_roots_hit =
    List.fold_left
      (fun (roots, hit) (s : Tagger.slice_info) ->
        if s.Tagger.kind = `Load && not s.Tagger.dropped then
          ( roots + 1,
            if s.Tagger.root_pc < Array.length st.predicted
               && st.predicted.(s.Tagger.root_pc)
            then hit + 1
            else hit )
        else (roots, hit))
      (0, 0) tg.Tagger.slices
  in
  { predicted_pcs = !predicted_pcs;
    tagged_pcs = !tagged_pcs;
    overlap_pcs = !overlap_pcs;
    precision = ratio !overlap_pcs !predicted_pcs;
    recall = ratio !overlap_pcs !tagged_pcs;
    jaccard = ratio !overlap_pcs !union;
    load_roots;
    load_roots_hit }

let pp_comparison fmt c =
  Format.fprintf fmt
    "predicted %d / tagged %d / overlap %d pcs — precision %.2f recall %.2f \
     jaccard %.2f, load roots %d/%d"
    c.predicted_pcs c.tagged_pcs c.overlap_pcs c.precision c.recall c.jaccard
    c.load_roots_hit c.load_roots
