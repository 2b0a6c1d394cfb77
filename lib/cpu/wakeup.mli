(** Intrusive wakeup lists over ROB slots.

    Flat head/next int arrays replacing the [dependents : int list] field:
    each (consumer, producer-operand) edge has a dedicated pre-allocated
    cell, so threading and popping consumers never touches the heap.
    Popping yields consumers newest-first (LIFO), the order of the
    cons-then-iterate lists it replaces. *)

type t

val create : int -> t
(** Lists over [n] slots; all initially empty. *)

val push : t -> producer:int -> consumer:int -> link:int -> unit
(** Thread [consumer] onto [producer]'s list via the consumer's operand
    [link] (0 <= link < 3: src1, src2, store-to-load forward).  A given
    (consumer, link) pair must be on at most one list at a time — the
    caller guarantees this by using a distinct link per producer
    operand. *)

val pop : t -> int -> int
(** Detach and return the most recently pushed consumer of the producer,
    or [-1] when the list is empty. *)

val reset : t -> int -> unit
(** Empty the producer's list without walking it (slot reuse on flush). *)

val is_empty : t -> int -> bool
