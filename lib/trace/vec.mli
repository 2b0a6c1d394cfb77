(** Growable array, used to accumulate dynamic traces.

    A [dummy] element fills unused capacity so no unsafe casts are needed. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
val length : 'a t -> int
val push : 'a t -> 'a -> unit
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val to_array : 'a t -> 'a array
val clear : 'a t -> unit
