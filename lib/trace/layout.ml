type t = {
  base : int;
  starts : int array;
  sizes : int array;
  total_bytes : int;
}

let size_of code critical pc =
  let d : Program.decoded = code.(pc) in
  Isa.byte_size d.Program.op + if critical pc then Isa.prefix_bytes else 0

let compute ?(base = 0x400000) ~critical (prog : Program.t) =
  let code = prog.Program.code in
  let n = Array.length code in
  let starts = Array.make n base in
  let sizes = Array.make n 0 in
  let cursor = ref base in
  for pc = 0 to n - 1 do
    starts.(pc) <- !cursor;
    sizes.(pc) <- size_of code critical pc;
    cursor := !cursor + sizes.(pc)
  done;
  { base; starts; sizes; total_bytes = !cursor - base }

let addr_of t pc = t.starts.(pc)

let static_bytes (prog : Program.t) ~critical =
  let code = prog.Program.code in
  let total = ref 0 in
  for pc = 0 to Array.length code - 1 do
    total := !total + size_of code critical pc
  done;
  !total

let dynamic_bytes (trace : Executor.t) ~critical =
  let code = trace.Executor.prog.Program.code in
  let total = ref 0 in
  for i = 0 to Executor.length trace - 1 do
    total := !total + size_of code critical (Executor.pc trace i)
  done;
  !total
