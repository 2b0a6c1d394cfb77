(** Best-Offset Prefetcher (Michaud, HPCA 2016), the data prefetcher enabled
    for all experiments in the paper (Table 1).

    BOP learns the single line offset [d] that best predicts future misses:
    on each training access to line [x] it checks whether [x - d_i] was
    recently requested (recent-requests table) and scores candidate offsets
    round-robin.  When a learning round ends, the best-scoring offset
    becomes the active prefetch offset; prefetching is disabled if even the
    best offset scores poorly.  BOP covers strides and periodic patterns but
    not pointer chases — exactly the gap CRISP targets. *)

type t

val create :
  ?rr_entries:int ->
  ?score_max:int ->
  ?round_max:int ->
  ?bad_score:int ->
  unit ->
  t
(** Defaults: 256-entry recent-requests table, [score_max] 31, [round_max]
    100 rounds, [bad_score] 1. *)

val candidate_offsets : int list
(** The classic BOP offset list: integers in [1, 256] whose prime factors
    are all in {2, 3, 5}. *)

val train : t -> line:int -> unit
(** Train on an L1 miss (or first hit on a prefetched line) to [line]. *)

val record_fill : t -> line:int -> unit
(** Record a completed fill in the recent-requests table. *)

val query : t -> line:int -> int option
(** Line to prefetch for a demand access to [line], if prefetching is
    currently enabled: [Some (line + best_offset)]. *)

val query_line : t -> line:int -> int
(** Same as {!query} but returns [-1] when prefetching is disabled — the
    unboxed variant the memory system's miss path uses. *)

val best_offset : t -> int option
(** Currently selected offset, [None] while disabled. *)
