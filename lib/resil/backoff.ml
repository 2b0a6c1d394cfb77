(* The one schedule in use: 50 ms doubling per attempt, capped at 1 s,
   spread by +/-12.5% of jitter. *)
let base = 0.05
let factor = 2.0
let max_delay = 1.0
let jitter = 0.25

let delay ~seed ~ident ~attempt =
  let nominal = Float.min (base *. (factor ** float_of_int attempt)) max_delay in
  let st = Random.State.make [| 0x6ba0; seed; Hashtbl.hash ident; attempt |] in
  let u = Random.State.float st 1.0 in
  Float.max 0. (nominal *. (1. +. (jitter *. (u -. 0.5))))
