(* The paper's motivating microbenchmark (Figures 1-3): an outer linked-list
   traversal interleaved with an embarrassingly parallel vector-scalar
   multiplication.  The pointer-chasing load misses the LLC on every node;
   the vector loads are covered by the prefetchers.  [with_prefetch]
   reproduces the manual __builtin_prefetch variant of Section 3.1. *)

let make ?(input = Workload.Ref) ?(instrs = 240_000) ?(vec_size = 24)
    ?(with_prefetch = false) () =
  let rng = Prng.create (Workload.seed_of input) in
  let scale = Workload.scale_of input in
  let mb = Mem_builder.create () in
  let iter_len = (7 * vec_size) + 5 in
  let nodes = max 2048 (instrs / iter_len * 11 / 10) in
  let region_bytes = max (nodes * 64 * 4) (int_of_float (8e6 *. scale)) in
  let head =
    Mem_builder.linked_list mb rng ~nodes ~region_bytes ~value_of:(fun i -> (i * 7) + 1)
  in
  let vec_base = Mem_builder.int_array mb (Array.init vec_size (fun i -> i + 1)) in
  let cur = 1 and v = 2 and vbase = 3 and e = 4 and t = 5 and addr = 6 and elem = 7 in
  let open Program in
  let code =
    [ Label "outer" ]
    @ (if with_prefetch then [ Prefetch (cur, 0) ] else [])
    @ [ Li (e, 0);
        Label "inner";
        Alu (Isa.Shl, t, e, Imm 3);
        Alu (Isa.Add, addr, vbase, Reg t);
        Ld (elem, addr, 0);
        Mul (elem, elem, v);
        St (elem, addr, 0);
        Alu (Isa.Add, e, e, Imm 1);
        Br (Isa.Lt, e, Imm vec_size, "inner");
        Ld (cur, cur, 0);  (* cur = cur->next: the delinquent load *)
        Ld (v, cur, 8);  (* val = cur->val *)
        Jmp "outer" ]
  in
  { Workload.name = "pointer_chase";
    description =
      "linked-list traversal interleaved with vector-scalar multiplication \
       (paper Figure 2)";
    program = assemble ~name:"pointer_chase" code;
    (* [v] is live into the first inner-loop pass, before the first
       cur->val load executes: the first vector sweep multiplies by the
       initial value declared here. *)
    reg_init = [ (cur, head); (vbase, vec_base); (v, 0) ];
    mem_init = Mem_builder.image mb;
    max_instrs = instrs }
