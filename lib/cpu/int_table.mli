(** Allocation-free int -> int hash table (open addressing, linear
    probing, backward-shift deletion).  Keys and values must be
    non-negative.  Sized at creation for a maximum live population;
    operations after [create] never allocate. *)

type t

val create : int -> t
(** Table that holds at least [capacity] live entries without rehashing
    (internally sized to a power of two with slack for short probes). *)

val find : t -> int -> int
(** Value bound to the key, or [-1] when absent. *)

val replace : t -> int -> int -> unit
(** Insert or overwrite.  Raises [Failure] if the fixed capacity is
    exhausted — the caller bounds the live population (e.g. by store-queue
    occupancy), so this indicates a logic error, not load. *)

val remove : t -> int -> unit
(** Remove the binding if present. *)

val length : t -> int
