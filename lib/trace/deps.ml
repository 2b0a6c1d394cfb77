type t = {
  prod1 : int array;
  prod2 : int array;
  prod_mem : int array;
}

let compute (trace : Executor.t) =
  let n = Executor.length trace in
  let prod1 = Array.make n (-1) in
  let prod2 = Array.make n (-1) in
  let prod_mem = Array.make n (-1) in
  (* last_writer.(r) = dynamic index of the most recent writer of register r *)
  let last_writer = Array.make Isa.num_regs (-1) in
  let last_store = Hashtbl.create 4096 in
  for i = 0 to n - 1 do
    let d = Executor.decoded trace i in
    if d.Program.src1 >= 0 then prod1.(i) <- last_writer.(d.Program.src1);
    if d.Program.src2 >= 0 then prod2.(i) <- last_writer.(d.Program.src2);
    (match d.Program.op with
    | Isa.Load -> begin
      match Hashtbl.find_opt last_store (Executor.addr trace i) with
      | Some j -> prod_mem.(i) <- j
      | None -> ()
    end
    | Isa.Store -> Hashtbl.replace last_store (Executor.addr trace i) i
    | _ -> ());
    if d.Program.dst >= 0 then last_writer.(d.Program.dst) <- i
  done;
  { prod1; prod2; prod_mem }

let producers t i =
  let add acc p = if p >= 0 && not (List.mem p acc) then p :: acc else acc in
  add (add (add [] t.prod1.(i)) t.prod2.(i)) t.prod_mem.(i)
