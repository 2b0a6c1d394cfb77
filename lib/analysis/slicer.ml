type instance = {
  nodes : int array;
  node_pcs : int array;
  producers : int array array;
}

type t = {
  root_pc : int;
  pcs : bool array;
  pc_list : int list;
  dags : instance list;
  avg_dynamic_length : float;
  edges : (int * int) list;
}

(* Indices of dynamic instances of [pc], sampled evenly, at most [n]. *)
let sample_instances trace pc n =
  let all = ref [] in
  for i = 0 to Executor.length trace - 1 do
    if Executor.pc trace i = pc then all := i :: !all
  done;
  let all = Array.of_list (List.rev !all) in
  let total = Array.length all in
  if total <= n then Array.to_list all
  else List.init n (fun k -> all.(k * total / n))

(* Walk one dynamic instance backward, LIFO.  The first instance of a
   static pc that the walk reaches is expanded; any later-reached instance
   of a pc already in this instance's walk is not (the recursive-dependency
   termination of Figure 3).  Every reached producer's pc is merged into
   [in_slice].  Returns the instance's DAG: the expanded instructions and,
   for each, its producers among them. *)
let walk_instance trace (deps : Deps.t) ~follow_memory ~in_slice ~edges root_idx =
  (* pc -> the one dynamic instance of it this walk expands *)
  let expanded = Hashtbl.create 64 in
  Hashtbl.add expanded (Executor.pc trace root_idx) root_idx;
  let walked = ref [] in
  let frontier = Stack.create () in
  Stack.push root_idx frontier;
  while not (Stack.is_empty frontier) do
    let i = Stack.pop frontier in
    let consumer_pc = Executor.pc trace i in
    let prods = ref [] in
    let explore p =
      if p >= 0 then begin
        let ppc = Executor.pc trace p in
        if not (Hashtbl.mem edges (ppc, consumer_pc)) then
          Hashtbl.add edges (ppc, consumer_pc) ();
        in_slice.(ppc) <- true;
        match Hashtbl.find_opt expanded ppc with
        | None ->
          Hashtbl.add expanded ppc p;
          Stack.push p frontier;
          prods := p :: !prods
        | Some q -> if q = p then prods := p :: !prods
      end
    in
    explore deps.Deps.prod1.(i);
    explore deps.Deps.prod2.(i);
    if follow_memory then explore deps.Deps.prod_mem.(i);
    walked := (i, !prods) :: !walked
  done;
  (* Producers precede their consumers, so ascending dynamic order is a
     topological order and the root comes last. *)
  let walked = Array.of_list (List.sort (fun (a, _) (b, _) -> compare a b) !walked) in
  let nodes = Array.map fst walked in
  let node_pcs = Array.map (Executor.pc trace) nodes in
  (* Each expanded instance has its own pc, so a pc names its position. *)
  let position = Hashtbl.create (Array.length nodes) in
  Array.iteri (fun k pc -> Hashtbl.add position pc k) node_pcs;
  { nodes;
    node_pcs;
    producers =
      Array.map
        (fun (_, prods) ->
          Array.of_list
            (List.map (fun p -> Hashtbl.find position (Executor.pc trace p)) prods))
        walked }

let max_instances = 32

let extract ?(follow_memory = true) (trace : Executor.t) (deps : Deps.t) ~root_pc =
  let num_pcs = Array.length trace.Executor.prog.Program.code in
  if root_pc < 0 || root_pc >= num_pcs then invalid_arg "Slicer.extract: bad root pc";
  let in_slice = Array.make num_pcs false in
  in_slice.(root_pc) <- true;
  let edges = Hashtbl.create 64 in
  let dags =
    List.map
      (walk_instance trace deps ~follow_memory ~in_slice ~edges)
      (sample_instances trace root_pc max_instances)
  in
  let instances = List.length dags in
  let total_len = List.fold_left (fun n d -> n + Array.length d.nodes) 0 dags in
  let pc_list = ref [] in
  for pc = num_pcs - 1 downto 0 do
    if in_slice.(pc) then pc_list := pc :: !pc_list
  done;
  { root_pc;
    pcs = in_slice;
    pc_list = !pc_list;
    dags;
    avg_dynamic_length =
      (if instances = 0 then 0. else float_of_int total_len /. float_of_int instances);
    edges = Hashtbl.fold (fun e () acc -> e :: acc) edges [] }

let size t = List.length t.pc_list
