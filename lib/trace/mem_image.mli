(** A simulated memory image: 8-byte words keyed by byte address.

    Words live in flat 512-byte pages (64 words) under a dense directory
    indexed by page number, so building an image is a run of array
    stores and reading it is two array loads.  Unwritten words read 0.
    An address that is negative, not 8-aligned, or too far from the
    directory to be worth a page goes to a small side table instead,
    with the same semantics.

    {!copy_on_write} makes a view that shares every page with its
    source; a page is copied the first time either side stores to it.
    {!Executor.run} runs each trace over such a view, so a run allocates
    only the pages it writes and never mutates the declared image. *)

type t

val create : unit -> t
(** An empty image: every word reads 0 and {!bounds} is [None]. *)

val get : t -> int -> int
(** [get t addr] is the word last stored at exactly [addr], or 0. *)

val set : t -> int -> int -> unit
(** [set t addr v] stores [v] at exactly [addr]. *)

val bounds : t -> (int * int) option
(** [(lo, hi)]: the lowest address ever stored to and one word (8 bytes)
    past the highest; [None] when nothing was stored.  Storing a 0 still
    counts. *)

val copy_on_write : t -> t
(** A view that reads as [t] does now.  Stores to the view never show
    in [t] and stores to [t] never show in the view; each costs one page
    copy the first time it lands on a shared page. *)
