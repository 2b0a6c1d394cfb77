(** The one place a grid cell is restored, computed, checkpointed and
    degraded — shared by {!Experiments} (one store per figure run) and
    the [crisp_sim serve] farm daemon (one store for its lifetime).

    A store holds an optional checkpoint {!Resil.Journal.t}, the pool and
    supervision policy cells run under, and an {!Exec.Memo} of
    settle-once cell handles keyed by the caller's cell ident.  Every
    cell follows one rule set:

    - {b Restore.}  A journal entry for the ident is decoded as a
      space-separated list of ["%h"] floats of the cell's arity and
      served as [Journal_hit] (logged [Restored]).  Any other payload is
      logged [Quarantined] and the cell is recomputed.
    - {b Compute.}  Otherwise the thunk is spawned under
      {!Resil.Supervise}.  On a pool with [parallelism <= 1] the cell
      settles at {!acquire}, so a kill mid-grid keeps every finished
      cell in the journal.
    - {b Settle.}  Exactly once, however many threads {!await} the cell;
      all of them see the same result.
    - {b Success.}  The value is checkpointed.  A checkpoint that raises
      for any reason is logged [Quarantined] and the value is kept: a
      failed write degrades the checkpoint, never the cell.
    - {b Failure.}  The memo entry is evicted, so the next {!acquire}
      recomputes the cell, and [Degraded] is logged once.  Failed cells
      are never journalled. *)

type source =
  | Computed  (** spawned by this acquire *)
  | Memo_hit  (** a live or settled handle already in the store *)
  | Journal_hit  (** restored from the checkpoint journal *)

type t

type cell
(** A settle-once handle on one cell. *)

val payload_format : string
(** ["payload=hexfloat"]: the journal payload format tag.  Callers fold
    it into their journal signature, so a journal written in any other
    format is quarantined whole at load instead of being misparsed. *)

val create : ?journal:Resil.Journal.t -> Exec.Pool.t -> Resil.Supervise.policy -> t

val acquire : t -> ident:string -> arity:int -> (unit -> float list) -> source * cell
(** Restore the cell, join its live handle, or spawn the thunk under
    [ident] (which also names the job for fault injection, backoff and
    {!Resil.Log}).  [arity] is the length of the float list the thunk
    returns. *)

val await : cell -> (float list, string) result
(** Block until the cell settles.  [Error] carries the
    {!Resil.Supervise.error_to_string} rendering of the failure.  Call
    from a non-worker domain. *)

val grid :
  t ->
  names:string list ->
  cols:'c list ->
  arity:int ->
  ident:(string -> int -> string) ->
  cell:(string -> 'c -> float list) ->
  (int -> int -> string -> source -> (float list, string) result -> unit) ->
  unit
(** [grid t ~names ~cols ~arity ~ident ~cell deliver] acquires every
    (row, column) cell in {!Grid.row_order} — the cell of [name] and
    column index [j] under [ident name j], computed by [cell name col] —
    then awaits them and calls [deliver row col ident source result] in
    row-major order. *)

val memo_stats : t -> Exec.Memo.stats
(** Counters of the store's cell memo: one hit, miss or dedup per
    {!acquire}. *)

val journal_cells : t -> int
(** Validated entries in the journal; [0] without one. *)
