(** Deterministic exponential backoff with seeded jitter.

    The delay before retry attempt [k] is [min (0.05 * 2^k) 1.0]
    seconds, scaled by [1 + 0.25 * (u - 0.5)] for a [u] in [\[0, 1)]
    drawn from a PRNG seeded by [(seed, ident, k)] — a pure function of
    its inputs.  Two runs with the same seed therefore sleep the exact
    same schedule for the same job, no matter how many worker domains
    are racing, which is what makes fault-injection runs
    reproducible. *)

val delay : seed:int -> ident:string -> attempt:int -> float
(** Delay in seconds before retry [attempt] (0-based) of the job
    identified by [ident].  Pure and deterministic; always in
    [\[0, 1.125\]]. *)
