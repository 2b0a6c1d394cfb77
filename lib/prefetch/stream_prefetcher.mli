(** Stream prefetcher: detects monotonically ascending or descending cache
    line sequences and runs a configurable number of lines ahead.  Paired
    with BOP as the baseline data prefetcher in the paper's evaluation
    (Section 5.1: "BOP and Stream"). *)

type t

val create : ?streams:int -> ?degree:int -> ?min_confidence:int -> unit -> t
(** [streams] concurrent trackers (default 16), [degree] lines prefetched
    ahead per confident access (default 4), [min_confidence] consecutive
    in-order accesses required before prefetching (default 2). *)

val access : t -> line:int -> int list
(** Observe a demand access to [line]; returns line numbers to prefetch. *)

val access_into : t -> line:int -> into:int array -> int
(** Same as {!access} but writes the prefetch lines into the caller's
    scratch buffer (which must hold at least {!degree} entries) and
    returns the count — the allocation-free variant the memory system
    uses. *)

val degree : t -> int
(** Lines prefetched ahead per confident access. *)
