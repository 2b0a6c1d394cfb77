(** Set-associative cache with true-LRU replacement.

    The cache tracks line residency only (no data); timing and miss
    handling live in the composing memory system.  Each line carries a
    [prefetched] bit so prefetcher coverage and accuracy can be measured. *)

type t

type params = {
  size_bytes : int;
  assoc : int;
  line_bytes : int;  (** power of two *)
}

val create : params -> t

val params : t -> params

val line_of : t -> int -> int
(** Line index (address with the offset bits dropped). *)

val probe : t -> addr:int -> bool
(** Residency check without any state change. *)

val access : t -> addr:int -> bool
(** Demand access: returns [true] on hit (refreshing LRU).  On miss the
    line is allocated immediately, evicting the LRU way.  Returns [false].
    The caller accounts the fill latency. *)

val access_info : t -> addr:int -> [ `Hit | `Hit_prefetched | `Miss ]
(** Like {!access} but reports whether the hit line was brought in by a
    prefetch (the prefetched bit is cleared by the first demand hit). *)

val fill_prefetch : t -> addr:int -> unit
(** Install a line on behalf of a prefetcher; no-op if already resident. *)

val invalidate : t -> addr:int -> unit

val hits : t -> int
val misses : t -> int
val prefetch_fills : t -> int
val prefetch_hits : t -> int
(** Demand hits on prefetched lines (prefetcher coverage numerator). *)

