(* splitmix64, computed on 32-bit halves held in native (immediate) ints.

   The state used to be a mutable [int64] field; every [next] then boxed
   the new state plus each intermediate, which made the RAND scheduler's
   per-dispatch draw one of the hottest allocation sites of the whole
   cycle engine.  Simulating the 64-bit arithmetic on two unboxed 32-bit
   halves produces the exact same sequence (test/test_engine.ml checks
   bit-equality against an int64 reference) with zero allocation. *)

type t = {
  mutable hi : int;  (* bits 63..32 of the splitmix64 state *)
  mutable lo : int;  (* bits 31..0 *)
  (* scratch halves for the 64-bit multiply: a product's high half shifted
     by 32 would not fit OCaml's 63-bit int, so [mul64_into] returns
     through these fields instead of a packed word or a tuple. *)
  mutable mhi : int;
  mutable mlo : int;
}

let mask32 = 0xFFFFFFFF
let mask16 = 0xFFFF

let create seed =
  (* [Int64.of_int] sign-extends 63-bit ints; mirror that on the halves. *)
  { hi = (seed asr 32) land mask32; lo = seed land mask32; mhi = 0; mlo = 0 }

(* (ahi:alo) * (bhi:blo) mod 2^64 into (t.mhi, t.mlo).  The low 32x32
   product is built from 16-bit limbs so every intermediate stays below
   2^50, well inside the native-int range. *)
let mul64_into t ahi alo bhi blo =
  let a0 = alo land mask16 and a1 = alo lsr 16 in
  let b0 = blo land mask16 and b1 = blo lsr 16 in
  let p0 = a0 * b0 in
  let p1 = (a0 * b1) + (a1 * b0) in
  let p2 = a1 * b1 in
  let t0 = p0 + ((p1 land mask16) lsl 16) in
  let carry = (t0 lsr 32) + (p1 lsr 16) + p2 in
  (* cross terms ahi*blo + alo*bhi contribute mod 2^32 only *)
  let cross =
    (ahi * b0) + (((ahi * b1) land mask16) lsl 16)
    + (bhi * a0)
    + (((bhi * a1) land mask16) lsl 16)
  in
  t.mlo <- t0 land mask32;
  t.mhi <- (carry + cross) land mask32

(* x lxor (x lsr n) on a 64-bit value in halves, 0 < n < 32. *)
let xorshift_hi hi n = hi lxor (hi lsr n)
let xorshift_lo hi lo n = lo lxor (((hi lsl (32 - n)) lor (lo lsr n)) land mask32)

let next t =
  (* state <- state + 0x9E3779B97F4A7C15 *)
  let lo0 = t.lo + 0x7F4A7C15 in
  let hi0 = (t.hi + 0x9E3779B9 + (lo0 lsr 32)) land mask32 in
  let lo0 = lo0 land mask32 in
  t.hi <- hi0;
  t.lo <- lo0;
  (* z <- (z lxor (z lsr 30)) * 0xBF58476D1CE4E5B9 *)
  mul64_into t (xorshift_hi hi0 30) (xorshift_lo hi0 lo0 30) 0xBF58476D 0x1CE4E5B9;
  let zhi = t.mhi and zlo = t.mlo in
  (* z <- (z lxor (z lsr 27)) * 0x94D049BB133111EB *)
  mul64_into t (xorshift_hi zhi 27) (xorshift_lo zhi zlo 27) 0x94D049BB 0x133111EB;
  let zhi = t.mhi and zlo = t.mlo in
  (* z <- z lxor (z lsr 31); the result is (z lsr 2): 62 bits, non-negative *)
  let rhi = xorshift_hi zhi 31 and rlo = xorshift_lo zhi zlo 31 in
  (rhi lsl 30) lor (rlo lsr 2)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  next t mod bound

let bool t = next t land 1 = 1

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
