type input =
  | Train
  | Ref

type t = {
  name : string;
  description : string;
  program : Program.t;
  reg_init : (Isa.reg * int) list;
  mem_init : Mem_image.t;
  max_instrs : int;
}

let trace t =
  Executor.run ~reg_init:t.reg_init ~mem_init:t.mem_init ~max_instrs:t.max_instrs
    t.program

let seed_of = function
  | Train -> 0x7261
  | Ref -> 0x52ef

let scale_of = function
  | Train -> 0.6
  | Ref -> 1.0
