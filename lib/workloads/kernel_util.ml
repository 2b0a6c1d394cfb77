let base_reg = 48
let temp0 = 49
let num_temps = 9

let buf_reg = 58

let payload ?(stores = 0) ~tag ~dep ~buf ~loads ~fp_ops () =
  ignore tag;
  let open Program in
  (* The floating-point block depends directly on [dep], so the whole
     burst becomes ready in the cycle the value arrives — the wakeup burst
     an oldest-first picker drains before younger critical work. *)
  let fp k =
    let r = temp0 + (k mod num_temps) in
    if k land 1 = 0 then Fmul (r, dep, dep) else Fadd (r, dep, dep)
  in
  (* Address base inside the scratch buffer, also derived from [dep];
     the loads and stores keep the load/store ports busy just behind. *)
  let header =
    [ Alu (Isa.And, base_reg, dep, Imm 0xF8);
      Alu (Isa.Add, base_reg, base_reg, Reg buf) ]
  in
  let load k =
    Ld (temp0 + (k mod num_temps), base_reg, k * 8 mod 4096)
  in
  let store k =
    St (temp0 + (k mod num_temps), base_reg, (k * 8 mod 2048) + 2048)
  in
  List.init fp_ops fp @ header @ List.init loads load @ List.init stores store

let scratch_buffer mb =
  let base = Mem_builder.alloc mb ~bytes:4096 in
  for i = 0 to 511 do
    Mem_builder.write mb ~addr:(base + (i * 8)) (i + 1)
  done;
  (buf_reg, (buf_reg, base))
