(** Fixed-width bitsets over instruction-queue slots, the building block of
    the age-matrix scheduler (paper Section 4.2: age masks, BID and PRIO
    vectors are all N-bit vectors combined with single-logic-level bitwise
    operations). *)

type t

val create : int -> t
(** All-zero bitset of the given width. *)

val set : t -> int -> unit
val clear : t -> int -> unit
val mem : t -> int -> bool
val is_empty : t -> bool
val diff_into : a:t -> b:t -> dst:t -> unit
(** [dst := a AND NOT b]. *)

val count : t -> int

val next_set : t -> int -> int
(** First set index [>= i], or [-1] when none.  Allocation-free scan
    primitive for the hot pickers; [i] may equal [width t]. *)

val nth_set : t -> int -> int
(** Index of the [n]-th (0-based) set bit in increasing order, or [-1]
    when fewer than [n+1] bits are set. *)

val next_set_circular : t -> int -> int
(** [next_set_circular t i] is the first set index met scanning from [i]
    upwards and wrapping past the last index to [0], or [-1] when the set
    is empty.  [0 <= i <= width t]. *)

val clear_all : t -> unit
