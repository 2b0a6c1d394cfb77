(* A host-speed probe.

   The benchmark runs on shared virtual machines whose speed drifts by
   10-30% over minutes, slower than any one run lasts, so a median over
   a run cannot remove it.  The probe is a fixed kernel written with the
   standard library alone.  Each step follows a pointer through a 16 MiB
   random cycle, which misses in every cache, then does eight dependent
   lookups in a 128 KiB table, which hit: the mix of memory stalls and
   cached integer work the simulator does.  The kernel allocates
   nothing, so no collection runs inside it and the program's heap
   cannot change its cost; the tables are built once, when the program
   starts.

   A workload runs the probe many times, on the thread that runs its own
   work and while none of that work is running, spread evenly through
   the run.  The host factor is the median probe time over [nominal_s],
   the probe's median on the reference box: above 1 the host ran slower
   than the reference.  Time metrics are divided by it and rates
   multiplied by it, which reports them as they would read on the
   reference box at its usual speed. *)

let nominal_s = 0.080

let cycle_len = 1 lsl 21
let small_len = 1 lsl 14
let steps = 1 lsl 19

(* A single random cycle through [cycle_len] slots (Sattolo's shuffle,
   from a fixed linear congruential sequence). *)
let next =
  let next = Array.init cycle_len Fun.id in
  let x = ref 12345 in
  for i = cycle_len - 1 downto 1 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let j = !x mod i in
    let t = next.(i) in
    next.(i) <- next.(j);
    next.(j) <- t
  done;
  next

let small = Array.init small_len (fun i -> (i * 40503) land (small_len - 1))

let kernel () =
  let mask = small_len - 1 in
  let p = ref 0 and s = ref 0 in
  for _ = 1 to steps do
    p := Array.unsafe_get next !p;
    for _ = 1 to 8 do
      s := Array.unsafe_get small ((!s + !p) land mask)
    done
  done;
  !p + !s

(* One timed probe, in seconds. *)
let time () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (kernel ()));
  Unix.gettimeofday () -. t0

let factor samples = Pct.median samples /. nominal_s

(* Probe times of one run; probes may run on any domain, one at a time. *)
type t = { lock : Mutex.t; mutable samples : float list }

let create () = { lock = Mutex.create (); samples = [] }

let add t s = Mutex.protect t.lock (fun () -> t.samples <- s :: t.samples)

let run t = add t (time ())

let samples t = Mutex.protect t.lock (fun () -> t.samples)

let host_factor t = factor (samples t)
