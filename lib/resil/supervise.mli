(** Supervised jobs: {!Exec.Pool.submit} wrapped with a wall-clock
    deadline, bounded retries with deterministic backoff, and an error
    taxonomy, so one failing grid cell degrades to an [Error] instead of
    killing the whole suite.

    {2 Deadlines}

    The deadline is measured from the moment the job's thunk {e starts}
    on a worker (queue time does not count) using the monotonicised
    {!Clock}.  OCaml domains cannot be killed, so a timed-out job is
    {e abandoned}: the supervisor returns [Error (Timeout _)] and the
    thunk's eventual result is discarded.  On the sequential pool the
    thunk runs inline at {!spawn}, so a stalled job cannot be abandoned
    mid-flight; it is instead classified as a timeout {e post hoc} from
    its recorded start/finish stamps.  Both paths yield the same
    [Timeout] result for the same fault plan, which keeps figure output
    identical across [--jobs] values.

    {2 Retries}

    Crashes are retried up to [retries] times, sleeping the
    {!Backoff} schedule (seeded, per-ident — reproducible) between
    attempts.  Timeouts are not retried: a deadline is a budget, not a
    transient. *)

type error =
  | Timeout of float  (** exceeded the deadline (seconds) *)
  | Crashed of exn  (** raised, and no retry budget was configured *)
  | Gave_up of exn  (** still raising after exhausting the retry budget;
                        the payload is the last exception *)

val error_to_string : error -> string

type policy = {
  deadline : float option;  (** seconds of running time per attempt *)
  retries : int;  (** additional attempts after the first crash *)
  seed : int;  (** backoff jitter seed *)
}

val default_policy : policy
(** No deadline, no retries, seed 0.  Retries always sleep the
    {!Backoff} schedule, and the watchdog polls every 2ms. *)

type 'a handle

val spawn : Exec.Pool.t -> policy -> ident:string -> (unit -> 'a) -> 'a handle
(** Submit the first attempt.  [ident] names the job in logs, backoff
    seeding and fault injection (site ["pool.job"] fires at thunk
    entry). *)

val join : 'a handle -> ('a, error) result
(** Wait for the outcome, enforcing the deadline and driving retries.
    Never raises; every failure mode is folded into [error].  Call from
    a non-worker domain (the figure-rendering domain). *)

val run : Exec.Pool.t -> policy -> ident:string -> (unit -> 'a) -> ('a, error) result
(** [join (spawn ...)]. *)
