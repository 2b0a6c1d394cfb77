(** Thread-safe memo table with in-flight deduplication.

    When several domains concurrently request the same key — e.g. every
    figure cell of one application asking for the same OOO baseline — the
    first caller computes it inline and the others block on a shared
    future, so the computation runs exactly once.

    A computation that raises resolves its waiters with the same exception
    and is forgotten (a later request will retry), so a transient failure
    does not poison the table. *)

type ('k, 'v) t

val create : ?size_hint:int -> unit -> ('k, 'v) t

val find_or_run : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** Return the cached value for the key, await the in-flight computation
    for it, or compute it on the calling domain and publish the result. *)

val remove : ('k, 'v) t -> 'k -> unit
(** Evict a completed entry (e.g. a grid cell whose supervised run
    degraded) so the next request recomputes it.  An in-flight entry is left alone:
    its computation will still publish to current waiters. *)

val clear : ('k, 'v) t -> unit
(** Drop completed entries.  In-flight computations are left to finish and
    publish; they were keyed before the clear and will be recomputed on
    the next request only if they raise. *)

val length : ('k, 'v) t -> int
(** Completed entries. *)

type stats = {
  hits : int;  (** requests served from a completed entry *)
  misses : int;  (** requests that ran the computation themselves *)
  dedups : int;  (** requests that awaited another caller's in-flight run *)
  evictions : int;  (** completed entries dropped by {!remove} / {!clear} *)
  entries : int;  (** completed entries currently held *)
}

val stats : ('k, 'v) t -> stats
(** Lifetime counters plus the current size — the cache-effectiveness
    numbers the simulation farm reports in its summary frames.  Every
    {!find_or_run} call increments exactly one of [hits], [misses] or
    [dedups], so [hits + dedups] is the work avoided and [misses] the
    number of times the computation actually ran. *)
