(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic element of the repository — data layouts of the
    synthetic workloads, the RAND scheduler's slot allocation, DRAM address
    hashing — draws from this generator so that traces and simulations are
    bit-reproducible for a given seed. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator. *)

val next : t -> int
(** Next 62-bit non-negative pseudo-random integer. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound). [bound] must be > 0. *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
