(* Aggregated path latency through every node of one instance DAG:
   up = longest leaf-to-node path, down = longest node-to-root path;
   through = up + down - latency(node).  Returns the through scores by
   node position and the longest path, which ends at the root. *)
let through_scores ~latency_of (dag : Slicer.instance) =
  let n = Array.length dag.Slicer.nodes in
  let lat = Array.map latency_of dag.Slicer.nodes in
  let prods = dag.Slicer.producers in
  (* Node positions are a topological order: producers come first. *)
  let up = Array.make n 0 in
  for k = 0 to n - 1 do
    up.(k) <- lat.(k) + Array.fold_left (fun acc p -> max acc up.(p)) 0 prods.(k)
  done;
  let down = Array.copy lat in
  for k = n - 1 downto 0 do
    Array.iter (fun p -> down.(p) <- max down.(p) (lat.(p) + down.(k))) prods.(k)
  done;
  (Array.init n (fun k -> up.(k) + down.(k) - lat.(k)), up.(n - 1))

let filter ~theta ~latency_of (slice : Slicer.t) =
  let keep = Array.make (Array.length slice.Slicer.pcs) false in
  keep.(slice.Slicer.root_pc) <- true;
  List.iter
    (fun (dag : Slicer.instance) ->
      let through, max_through = through_scores ~latency_of dag in
      let cutoff = theta *. float_of_int max_through in
      Array.iteri
        (fun k score ->
          if float_of_int score >= cutoff then keep.(dag.Slicer.node_pcs.(k)) <- true)
        through)
    slice.Slicer.dags;
  keep

let longest_path ~latency_of dag = snd (through_scores ~latency_of dag)
