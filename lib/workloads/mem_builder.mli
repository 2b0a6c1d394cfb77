(** Memory-image construction for workloads: a bump allocator over the
    simulated address space plus helpers for the data-structure shapes the
    kernels need (randomised linked lists, index arrays, word arrays). *)

type t

val create : unit -> t

val image : t -> Mem_image.t
(** The image built so far, passed to {!Executor.run}. *)

val alloc : t -> bytes:int -> int
(** Reserve a cache-line-aligned region; returns its base address. *)

val write : t -> addr:int -> int -> unit

val int_array : t -> int array -> int
(** Allocate and initialise an array of 8-byte words; returns the base. *)

val linked_list :
  t -> Prng.t -> nodes:int -> region_bytes:int -> value_of:(int -> int) -> int
(** Build a circular singly linked list of [nodes] 64-byte nodes placed at
    shuffled line-aligned slots across a dedicated region — the layout that
    defeats stride and offset prefetchers.  Node layout: next pointer at
    offset 0, value at offset 8.  Returns the head address. *)

val shuffled_indices : Prng.t -> n:int -> int array
(** A random permutation of [0, n). *)
