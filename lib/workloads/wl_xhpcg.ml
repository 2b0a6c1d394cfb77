(* Xhpcg proxy: CSR sparse matrix-vector multiplication.  Row pointers,
   column indices and matrix values all stream (prefetcher-covered); the
   gather x[col[j]] is irregular over a multi-MiB vector and its address
   flows through memory (the column index is itself loaded).  Short rows
   keep the natural MLP moderate, so the gather latency is exposed —
   exactly the pattern where a larger OOO window lets CRISP prioritise
   across more rows (paper Section 5.4). *)

let make ?(input = Workload.Ref) ?(instrs = 240_000) () =
  let rng = Prng.create (Workload.seed_of input) in
  let scale = Workload.scale_of input in
  let mb = Mem_builder.create () in
  let x_count = int_of_float (260_000. *. scale) in
  let x_base = Mem_builder.alloc mb ~bytes:(x_count * 8) in
  for i = 0 to x_count - 1 do
    Mem_builder.write mb ~addr:(x_base + (i * 8)) ((i * 3) + 1)
  done;
  let nnz_per_row = 4 in
  let rows = max 512 (instrs / 88 * 11 / 10) in
  let nnz = rows * nnz_per_row in
  let cols_base = Mem_builder.alloc mb ~bytes:(nnz * 8) in
  let vals_base = Mem_builder.alloc mb ~bytes:(nnz * 8) in
  for j = 0 to nnz - 1 do
    Mem_builder.write mb ~addr:(cols_base + (j * 8)) (Prng.int rng x_count);
    Mem_builder.write mb ~addr:(vals_base + (j * 8)) (Prng.int rng 97)
  done;
  let y_base = Mem_builder.alloc mb ~bytes:(rows * 8) in
  (* next-row indirection: a random permutation chased through memory, the
     symGS-like ordering dependence that serialises row processing *)
  let rng_perm = Prng.create (Workload.seed_of input + 17) in
  let perm = Mem_builder.shuffled_indices rng_perm ~n:rows in
  let next_base = Mem_builder.alloc mb ~bytes:(rows * 64) in
  for r = 0 to rows - 1 do
    Mem_builder.write mb ~addr:(next_base + (perm.(r) * 64)) perm.((r + 1) mod rows)
  done;
  let buf, buf_init = Kernel_util.scratch_buffer mb in
  let row = 1 and j = 2 and j_end = 3 and col = 4 and t = 5 in
  let xaddr = 6 and xv = 7 and mv = 8 and acc = 9 in
  let xb = 10 and cb = 11 and vb = 12 and yb = 13 and yaddr = 14 and nb = 16 in
  let open Program in
  let code =
    [ Label "row_loop";
      Li (acc, 0);
      (* CSR row start: j = row * nnz_per_row * 8 *)
      Alu (Isa.Shl, j, row, Imm 5);
      Alu (Isa.Add, j_end, j, Imm (nnz_per_row * 8));
      Label "nnz_loop";
      Alu (Isa.Add, t, cb, Reg j);
      Ld (col, t, 0);  (* column index: streams *)
      Alu (Isa.Shl, xaddr, col, Imm 3);
      Alu (Isa.Add, xaddr, xaddr, Reg xb);
      Ld (xv, xaddr, 0);  (* delinquent gather x[col[j]] *)
      Alu (Isa.Add, t, vb, Reg j);
      Ld (mv, t, 0);  (* matrix value: streams *)
      Fmul (xv, xv, mv);
      Fadd (acc, acc, xv);
      Alu (Isa.Add, j, j, Imm 8);
      Br (Isa.Lt, j, Reg j_end, "nnz_loop");
      Alu (Isa.Shl, yaddr, row, Imm 3);
      Alu (Isa.Add, yaddr, yaddr, Reg yb);
      St (acc, yaddr, 0) ]
    (* smoother work consuming the row result *)
    @ Kernel_util.payload ~tag:"xhpcg-smoother" ~dep:acc ~buf ~loads:8 ~fp_ops:28
        ~stores:14 ()
    @ [ (* next row through the ordering permutation: a dependent load *)
      Alu (Isa.Shl, t, row, Imm 6);
      Alu (Isa.Add, t, t, Reg nb);
      Ld (row, t, 0);  (* delinquent: serialises the row order *)
      Alu (Isa.Mov, t, row, Imm 0);
      Br (Isa.Ne, row, Imm (-1), "row_loop");
      Halt ]
  in
  { Workload.name = "xhpcg";
    description = "CSR sparse matrix-vector multiply with irregular x gathers";
    program = assemble ~name:"xhpcg" code;
    reg_init =
      [ (row, perm.(0)); (j, 0); (xb, x_base); (cb, cols_base); (vb, vals_base);
        (yb, y_base); (nb, next_base); buf_init ];
    mem_init = Mem_builder.image mb;
    max_instrs = instrs }
