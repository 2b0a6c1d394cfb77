(** Fixed pool of OCaml 5 domains with per-worker work-stealing deques and
    a shared injection queue.

    Jobs submitted from outside the pool enter the injection queue; jobs
    submitted by a worker (nested submission) go to that worker's own
    deque and overflow to the injection queue when full.  Idle workers
    first drain their own deque, then steal batches from siblings, then
    take from the injection queue, and finally park on a condition
    variable.

    {!await} is help-first: a worker awaiting a future executes queued
    jobs while it waits, so nested fork/join job graphs cannot deadlock
    the pool even with a single worker. *)

type t

exception Shut_down
(** Raised by {!await} (via the job's future) when the pool was shut down
    with [~drain:false] before the job ever started running. *)

val sequential : t
(** The [--jobs 1] escape hatch: no domains, no queues — {!submit} runs
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
  queued : int;  (** jobs enqueued (deques + injection) but not yet started *)
  running : int;  (** jobs currently executing a thunk *)
  stolen : int;  (** cumulative jobs migrated between worker deques *)
}

val stats : t -> stats
(** A racy (unfenced) snapshot of farm load: [queued]/[running] are
    instantaneous gauges, [stolen] a lifetime counter.  {!sequential}
    reports all-zero gauges. *)

val submit : t -> (unit -> 'a) -> 'a Future.t
(** Schedule a job.  An exception raised by the thunk resolves the future
    with the failure and re-raises at {!await}.
    @raise Invalid_argument after {!shutdown}. *)

val await : t -> 'a Future.t -> 'a
(** Like {!Future.await}, but when called from a worker domain it runs
    queued jobs while waiting instead of blocking the domain. *)

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
    block until it completes.  Submitting after shutdown raises
    [Invalid_argument]. *)
