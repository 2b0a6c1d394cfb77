(** Ring-buffered event log.

    A bounded circular buffer of packed (cycle, kind, a, b) event records
    backed by one flat int array: recording is four stores and never
    allocates, so tracing long runs costs O(capacity) memory.  When the
    ring is full the oldest record is overwritten and counted in
    {!dropped} — the exporters always see the most recent window. *)

type t

val create : capacity:int -> t
(** Ring holding up to [capacity] events ([capacity >= 1]). *)

val record : t -> cycle:int -> kind:int -> a:int -> b:int -> unit

val length : t -> int
(** Events currently held (at most the capacity). *)

val recorded : t -> int
(** Total events ever recorded, including overwritten ones. *)

val dropped : t -> int
(** [recorded - length]: events lost to overwriting. *)

val iter : (cycle:int -> kind:int -> a:int -> b:int -> unit) -> t -> unit
(** Visit the retained events oldest-first. *)
