(** Fixed pool of OCaml 5 domains serving one FIFO job queue.

    Every job goes into a single queue under a mutex; idle workers wait
    on the pool's condition variable and take jobs in submission order.
    Grid cells are coarse (tens to hundreds of ms each), so one shared
    queue costs nothing measurable, and its FIFO start order is what
    long-pole-first row scheduling relies on.

    Jobs must not wait on jobs of their own pool: {!await} called from a
    job running on the same pool raises [Invalid_argument] instead of
    deadlocking a saturated pool. *)

type t

exception Shut_down
(** Raised by {!await} (via the job's future) when the pool was shut down
    with [~drain:false] before the job ever started running. *)

val sequential : t
(** The [--jobs 1] escape hatch: no domains, no queue — {!submit} runs
    the thunk inline on the calling domain and returns a resolved future,
    giving exactly the sequential execution order. *)

val create : ?workers:int -> unit -> t
(** Spawn [workers] worker domains (default
    [Domain.recommended_domain_count ()]).  [workers <= 0] returns
    {!sequential}. *)

val of_jobs : int -> t
(** The [--jobs N] mapping: [N <= 0] asks for
    [Domain.recommended_domain_count ()] workers; a count of 1 gives
    {!sequential}, any other count [create ~workers ()]. *)

val parallelism : t -> int
(** Number of worker domains; 1 for {!sequential}. *)

type stats = {
  workers : int;  (** worker domains ({!parallelism}) *)
  queued : int;  (** jobs submitted but not yet started *)
  running : int;  (** jobs currently executing a thunk *)
  stolen : int;
      (** always 0: the pool has no per-worker deques to steal between.
          Kept because the farm's [Stats_reply] wire format and the
          benchmark's [exec.stolen] metric read it. *)
}

val stats : t -> stats
(** A snapshot of pool load, taken under the queue lock: [queued] and
    [running] are exact at that instant (the farm's [max_queued]
    admission reads [queued]).  {!sequential} reports all-zero gauges. *)

val submit : t -> (unit -> 'a) -> 'a Future.t
(** Append a job to the queue.  An exception raised by the thunk resolves
    the future with the failure and re-raises at {!await}.
    @raise Invalid_argument after {!shutdown}. *)

val await : t -> 'a Future.t -> 'a
(** {!Future.await}, guarded against self-deadlock.
    @raise Invalid_argument when called from a job running on this same
    pool, whether or not the future is already resolved. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** Submit one job per element and await them all; results keep the input
    order.  On {!sequential} this is exactly [List.map]. *)

val shutdown : ?drain:bool -> t -> unit
(** Stop and join every worker domain.  With [~drain:true] (the default)
    queued jobs run to completion first; with [~drain:false] jobs that
    have not started are discarded and their futures fail with
    {!Shut_down}, so an {!await} on a never-started job raises cleanly
    instead of deadlocking.  Idempotent, and safe to call from several
    domains at once: exactly one caller performs the join, the others
    wait on the pool's condition variable until it completes.
    Submitting after shutdown raises [Invalid_argument]. *)
