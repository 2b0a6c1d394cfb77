(** A runnable workload: a program plus its initial architectural state.

    Mirroring the paper's methodology (Section 5.1), every workload offers
    two inputs: [Train], used for profiling and slice extraction, and
    [Ref], used for evaluation — different seeds and data-structure sizes,
    same code. *)

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

val trace : t -> Executor.t
(** Execute the workload to produce its dynamic trace. *)

val seed_of : input -> int
(** Base PRNG seed: the two inputs use disjoint seeds so profiled and
    evaluated data layouts differ. *)

val scale_of : input -> float
(** Data-structure scale factor: [Train] works on ~60% of the [Ref]
    sizes. *)
