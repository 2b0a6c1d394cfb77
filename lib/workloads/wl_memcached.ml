(* memcached proxy (TailBench): GET request loop.  Key hashing (medium
   slice), a bucket-head load into a multi-MiB table (delinquent), a short
   chain walk with a key-comparison branch that occasionally mismatches,
   and a small value copy.  Load and branch slices combine (paper
   Figure 8). *)

let make ?(input = Workload.Ref) ?(instrs = 240_000) () =
  let rng = Prng.create (Workload.seed_of input) in
  let scale = Workload.scale_of input in
  let mb = Mem_builder.create () in
  let bucket_bits = 17 in
  let bucket_count = 1 lsl bucket_bits in
  let item_count = int_of_float (130_000. *. scale) in
  let items_base = Mem_builder.alloc mb ~bytes:(item_count * 64) in
  let buckets_base = Mem_builder.alloc mb ~bytes:(bucket_count * 8) in
  for i = 0 to item_count - 1 do
    let addr = items_base + (i * 64) in
    (* item: [key, next, value0, value1] *)
    Mem_builder.write mb ~addr (Prng.int rng 1_000_000);
    Mem_builder.write mb ~addr:(addr + 8) (items_base + (Prng.int rng item_count * 64));
    Mem_builder.write mb ~addr:(addr + 16) (Prng.int rng 1000);
    Mem_builder.write mb ~addr:(addr + 24) (Prng.int rng 1000)
  done;
  for b = 0 to bucket_count - 1 do
    Mem_builder.write mb ~addr:(buckets_base + (b * 8))
      (items_base + (Prng.int rng item_count * 64))
  done;
  let req_count = 8192 in
  let reqs =
    Mem_builder.int_array mb
      (Array.init req_count (fun _ -> Prng.int rng 1_000_000))
  in
  let buf, buf_init = Kernel_util.scratch_buffer mb in
  let rp = 1 and key = 2 and hsh = 3 and t = 4 and item = 5 in
  let ikey = 6 and v0 = 7 and v1 = 8 and acc = 9 and bb = 10 and rend = 11 in
  let out = 12 and outb = 13 in
  let open Program in
  let code =
    [ Label "loop";
      Ld (key, rp, 0);  (* request stream *)
      Alu (Isa.Add, rp, rp, Imm 8);
      (* connection state: the previous value conditions the next request
         (e.g. a multi-get continuation), serialising the probe chain *)
      Alu (Isa.Xor, key, key, Reg out);
      (* key hash *)
      Mul (hsh, key, key);
      Alu (Isa.Shr, t, hsh, Imm 9);
      Alu (Isa.Xor, hsh, hsh, Reg t);
      Alu (Isa.And, hsh, hsh, Imm (bucket_count - 1));
      Alu (Isa.Shl, t, hsh, Imm 3);
      Alu (Isa.Add, t, t, Reg bb);
      Ld (item, t, 0);  (* bucket head: delinquent *)
      Ld (ikey, item, 0);  (* item key: delinquent *)
      Br (Isa.Eq, ikey, Reg key, "hit");  (* almost always a miss: predictable *)
      Ld (item, item, 8);  (* chain walk: dependent delinquent load *)
      Ld (ikey, item, 0);
      Label "hit";
      Ld (v0, item, 16);
      Ld (v1, item, 24) ]
    (* response serialisation: the burst consuming the fetched value *)
    @ Kernel_util.payload ~tag:"memcached-response" ~dep:v0 ~buf ~loads:8 ~fp_ops:30
        ~stores:16 ()
    @ [ St (v0, outb, 0);
      St (v1, outb, 8);
      Alu (Isa.Add, out, v0, Reg v1);
      Alu (Isa.Add, acc, acc, Reg out);
      Br (Isa.Lt, rp, Reg rend, "loop");
      Li (rp, reqs);
      Jmp "loop" ]
  in
  { Workload.name = "memcached";
    description = "GET loop: hash, bucket probe, chain walk, value copy";
    program = assemble ~name:"memcached" code;
    reg_init =
      [ (rp, reqs); (rend, reqs + (req_count * 8)); (bb, buckets_base);
        (outb, Mem_builder.alloc mb ~bytes:64); (out, 0); (acc, 0); buf_init ];
    mem_init = Mem_builder.image mb;
    max_instrs = instrs }
