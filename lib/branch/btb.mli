(** Branch target buffer: a set-associative pc -> target cache with LRU
    replacement.  Table 1 of the paper uses an 8K-entry BTB. *)

type t

val create : ?entries:int -> ?assoc:int -> unit -> t
(** [entries] (default 8192) must be a multiple of [assoc] (default 4) and
    the number of sets a power of two. *)

val lookup : t -> pc:int -> int option
(** Predicted target for a control transfer at [pc]; updates LRU on hit. *)

val find_target : t -> pc:int -> int
(** Same as {!lookup} but returns [-1] on a miss instead of boxing the
    target in an option — the variant the fetch stage uses.  Identical
    LRU accounting. *)

val update : t -> pc:int -> target:int -> unit
(** Install or refresh the mapping after the transfer resolves. *)
