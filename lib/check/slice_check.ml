type violation = {
  pc : int;
  reason : string;
}

let pp_violation fmt v =
  if v.pc >= 0 then Format.fprintf fmt "pc %d: %s" v.pc v.reason
  else Format.pp_print_string fmt v.reason

(* ------------------------------------------------------------------ *)
(* Slice closure                                                       *)
(* ------------------------------------------------------------------ *)

(* Even instance sampling, mirroring the published contract of
   Slicer.extract: at most [n] dynamic instances of [pc], evenly spaced
   over the trace. *)
let sample_instances trace pc n =
  let all = ref [] in
  for i = 0 to Executor.length trace - 1 do
    if Executor.pc trace i = pc then all := i :: !all
  done;
  let all = Array.of_list (List.rev !all) in
  let total = Array.length all in
  if total <= n then Array.to_list all else List.init n (fun k -> all.(k * total / n))

(* Independent closure: recursive backward walk per sampled instance,
   expansion of an ancestor stopping once its static pc was seen in this
   instance (the paper's recursive-dependency termination), memberships
   merged across instances. *)
let expected_closure (trace : Executor.t) (deps : Deps.t) ~follow_memory ~root_pc =
  let num_pcs = Array.length trace.Executor.prog.Program.code in
  let members = Array.make num_pcs false in
  members.(root_pc) <- true;
  let roots = sample_instances trace root_pc Slicer.max_instances in
  List.iter
    (fun root_idx ->
      let seen = Hashtbl.create 64 in
      Hashtbl.add seen (Executor.pc trace root_idx) ();
      let rec visit i =
        let expand p =
          if p >= 0 then begin
            let ppc = Executor.pc trace p in
            members.(ppc) <- true;
            if not (Hashtbl.mem seen ppc) then begin
              Hashtbl.add seen ppc ();
              visit p
            end
          end
        in
        expand deps.Deps.prod1.(i);
        expand deps.Deps.prod2.(i);
        if follow_memory then expand deps.Deps.prod_mem.(i)
      in
      visit root_idx)
    roots;
  members

(* All (producer pc, consumer pc) pairs that occur anywhere in the trace's
   dependency relation — the universe recorded slice edges must live in. *)
let dependency_pairs (trace : Executor.t) (deps : Deps.t) ~follow_memory =
  let pairs = Hashtbl.create 1024 in
  for i = 0 to Executor.length trace - 1 do
    let add p =
      if p >= 0 then Hashtbl.replace pairs (Executor.pc trace p, Executor.pc trace i) ()
    in
    add deps.Deps.prod1.(i);
    add deps.Deps.prod2.(i);
    if follow_memory then add deps.Deps.prod_mem.(i)
  done;
  pairs

let verify_slice ?(follow_memory = true) (trace : Executor.t) (deps : Deps.t)
    (slice : Slicer.t) =
  let violations = ref [] in
  let fail pc fmt =
    Format.kasprintf (fun reason -> violations := { pc; reason } :: !violations) fmt
  in
  let num_pcs = Array.length trace.Executor.prog.Program.code in
  let root = slice.Slicer.root_pc in
  if Array.length slice.Slicer.pcs <> num_pcs then
    fail (-1) "membership map covers %d pcs, program has %d"
      (Array.length slice.Slicer.pcs) num_pcs
  else begin
    (* Structural consistency of the slice value. *)
    if not slice.Slicer.pcs.(root) then fail root "root pc is not a slice member";
    let from_map = ref [] in
    for pc = num_pcs - 1 downto 0 do
      if slice.Slicer.pcs.(pc) then from_map := pc :: !from_map
    done;
    if slice.Slicer.pc_list <> !from_map then
      fail (-1) "pc_list disagrees with the membership map";
    (* Recorded edges: both endpoints members, and each corresponds to a
       dependency that actually occurs in the trace. *)
    let pairs = dependency_pairs trace deps ~follow_memory in
    List.iter
      (fun (p, c) ->
        if p < 0 || p >= num_pcs || (not slice.Slicer.pcs.(p)) then
          fail p "edge producer %d -> %d is not a slice member" p c;
        if c < 0 || c >= num_pcs || not slice.Slicer.pcs.(c) then
          fail c "edge consumer %d -> %d is not a slice member" p c;
        if not (Hashtbl.mem pairs (p, c)) then
          fail p "edge %d -> %d matches no dependency in the trace" p c)
      slice.Slicer.edges;
    (* Connectivity: every member must reach the root through the edges. *)
    let producers_of = Hashtbl.create 64 in
    List.iter
      (fun (p, c) -> Hashtbl.add producers_of c p)
      slice.Slicer.edges;
    let connected = Array.make num_pcs false in
    let rec walk pc =
      if pc >= 0 && pc < num_pcs && not connected.(pc) then begin
        connected.(pc) <- true;
        List.iter walk (Hashtbl.find_all producers_of pc)
      end
    in
    walk root;
    List.iter
      (fun pc ->
        if not connected.(pc) then
          fail pc "member does not reach the root through any dependency edge")
      slice.Slicer.pc_list;
    (* Closure: the independently recomputed backward closure must match
       the slice's membership set exactly. *)
    let expected = expected_closure trace deps ~follow_memory ~root_pc:root in
    for pc = 0 to num_pcs - 1 do
      if expected.(pc) && not slice.Slicer.pcs.(pc) then
        fail pc "backward closure member missing from the slice (not closed)";
      if slice.Slicer.pcs.(pc) && not expected.(pc) then
        fail pc "spurious member outside the backward closure"
    done
  end;
  List.rev !violations

(* ------------------------------------------------------------------ *)
(* Tag budget                                                          *)
(* ------------------------------------------------------------------ *)

let dynamic_ratio_of (report : Profiler.report) critical =
  let tagged = ref 0 in
  Array.iteri
    (fun pc execs -> if critical.(pc) then tagged := !tagged + execs)
    report.Profiler.pc_execs;
  if report.Profiler.total_instrs = 0 then 0.
  else float_of_int !tagged /. float_of_int report.Profiler.total_instrs

let verify_tagging ~(options : Tagger.options) (report : Profiler.report)
    (t : Tagger.t) =
  let violations = ref [] in
  let fail pc fmt =
    Format.kasprintf (fun reason -> violations := { pc; reason } :: !violations) fmt
  in
  let num_pcs = Array.length t.Tagger.critical in
  (* Every slice member pc must be a program pc, and the slice's recorded
     static size must match its member list. *)
  List.iter
    (fun (s : Tagger.slice_info) ->
      if List.length s.Tagger.pcs <> s.Tagger.static_size then
        fail s.Tagger.root_pc "slice static_size %d disagrees with %d member pcs"
          s.Tagger.static_size (List.length s.Tagger.pcs);
      List.iter
        (fun pc ->
          if pc < 0 || pc >= num_pcs then
            fail pc "slice member outside the program's %d pcs" num_pcs)
        s.Tagger.pcs;
      if not (List.mem s.Tagger.root_pc s.Tagger.pcs) then
        fail s.Tagger.root_pc "slice does not contain its own root")
    t.Tagger.slices;
  (* The slice list is the admission order: contribution must never
     increase along it. *)
  let rec check_order = function
    | (a : Tagger.slice_info) :: (b : Tagger.slice_info) :: rest ->
      if b.Tagger.contribution > a.Tagger.contribution then
        fail b.Tagger.root_pc
          "admission order violated: contribution %d follows %d"
          b.Tagger.contribution a.Tagger.contribution;
      check_order (b :: rest)
    | _ -> ()
  in
  check_order t.Tagger.slices;
  (* Replay the ratio-guardrail admission over the recorded slice order,
     recomputing the dynamic ratio from the report at every step.  On a
     drop, revert by the tagger's published rule: a pc stays tagged only
     when it is shared with an earlier {e admitted} slice or is this
     slice's own root. *)
  let replay = Array.make num_pcs false in
  let processed = ref [] in
  List.iter
    (fun (s : Tagger.slice_info) ->
      let valid = List.filter (fun pc -> pc >= 0 && pc < num_pcs) s.Tagger.pcs in
      List.iter (fun pc -> replay.(pc) <- true) valid;
      let ratio = dynamic_ratio_of report replay in
      let should_drop = ratio > options.Tagger.ratio_max in
      if should_drop <> s.Tagger.dropped then
        fail s.Tagger.root_pc
          "budget replay disagrees: ratio %.4f vs cap %.2f says slice should be %s, \
           tagger recorded %s"
          ratio options.Tagger.ratio_max
          (if should_drop then "dropped" else "admitted")
          (if s.Tagger.dropped then "dropped" else "admitted");
      if should_drop then
        List.iter
          (fun pc ->
            let shared =
              List.exists
                (fun (admitted, (e : Tagger.slice_info)) ->
                  admitted && List.mem pc e.Tagger.pcs)
                !processed
            in
            if (not shared) && pc <> s.Tagger.root_pc then replay.(pc) <- false)
          valid;
      processed := (not should_drop, s) :: !processed)
    t.Tagger.slices;
  for pc = 0 to num_pcs - 1 do
    if t.Tagger.critical.(pc) && not replay.(pc) then
      fail pc "tagged pc not justified by the budget replay";
    if replay.(pc) && not t.Tagger.critical.(pc) then
      fail pc "budget replay tags this pc but the tagger left it untagged"
  done;
  (* Tags only on slice members. *)
  let member = Array.make num_pcs false in
  List.iter
    (fun (s : Tagger.slice_info) ->
      List.iter
        (fun pc -> if pc >= 0 && pc < num_pcs then member.(pc) <- true)
        s.Tagger.pcs)
    t.Tagger.slices;
  for pc = 0 to num_pcs - 1 do
    if t.Tagger.critical.(pc) && not member.(pc) then
      fail pc "tagged pc belongs to no slice"
  done;
  (* Aggregates. *)
  let static_count =
    Array.fold_left (fun n c -> if c then n + 1 else n) 0 t.Tagger.critical
  in
  if static_count <> t.Tagger.static_count then
    fail (-1) "static_count %d disagrees with %d tagged pcs" t.Tagger.static_count
      static_count;
  let ratio = dynamic_ratio_of report t.Tagger.critical in
  if Float.abs (ratio -. t.Tagger.dynamic_ratio) > 1e-9 then
    fail (-1) "dynamic_ratio %.6f disagrees with recomputed %.6f" t.Tagger.dynamic_ratio
      ratio;
  List.rev !violations
