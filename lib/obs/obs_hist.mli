(** Power-of-two-bucketed histogram for non-negative integer samples
    (occupancies, wait cycles, latencies).

    Bucket 0 holds the value 0; bucket [i > 0] holds values in
    [\[2^(i-1), 2^i)].  Recording is a handful of integer ops with no
    allocation, so per-cycle sampling stays cheap. *)

type t

val create : unit -> t

val add : t -> int -> unit
(** Record one sample; negative samples are clamped to 0. *)

val count : t -> int
val sum : t -> int
val max_value : t -> int
(** Largest sample seen; 0 when empty. *)

val buckets : t -> (int * int) list
(** [(bucket_lower_bound, samples)] for every non-empty bucket, in
    increasing bound order. *)

val bucket_index : int -> int
(** The bucket a value falls into (exposed for tests). *)
