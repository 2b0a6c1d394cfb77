(** The simulation-farm daemon core: accepts clients on a Unix-domain
    socket, decomposes their grid requests into canonical cells and
    runs them through one {!Cell_store} for the daemon's lifetime: it
    dedups identical cells across {e all} connected clients, shards the
    work over an {!Exec.Pool}, runs every cell under {!Resil.Supervise},
    and checkpoints completed cells in a {!Resil.Journal} so a
    SIGKILL'd daemon resumes warm.

    Cell identity is the canonical key built from (workload, metric,
    variant, threshold, window, instruction budgets) — deliberately {e
    not} the grid tag, so fig7's CRISP column and fig8's combined
    column, or the same grid requested by two clients, are the same
    cell and simulate once.

    Each client connection is handled on its own system thread; the
    worker domains of the shared pool do the actual simulation.  A
    degraded cell (timeout, crash, quarantine) is reported to the
    requesting clients, evicted from the memo so a later request
    retries it, and never journalled.

    {2 Hostile-traffic lifecycle}

    The network edge assumes nothing about its clients.  Every
    connection lives under {!limits}:
    - reads and writes carry per-frame deadlines ({!Farm_frame.read_fd}
      / {!Farm_frame.write_fd}), so a slowloris writer trickling one
      byte per second or a dead reader that never drains its socket is
      evicted within [io_timeout] instead of pinning a handler thread;
    - a connection silent for [idle_timeout] is reaped;
    - over-cap connections ([max_connections]) and over-deep pool
      queues ([max_queued]) both shed with a structured
      {!Farm_protocol.response.Overloaded} terminating frame;
    - {!stop} (SIGTERM) drains gracefully: the accept loop closes,
      in-flight grids finish streaming, idle connections get a
      {!Farm_protocol.response.Draining} frame within ~50ms, the server
      journal records a ["clean_shutdown"] marker, and {!run} returns
      so the process can exit 0. *)

(** Overload and lifecycle policy for the daemon's network edge. *)
type limits = {
  max_connections : int;
      (** concurrent handler threads; excess connections are shed with
          [Overloaded] at accept time *)
  max_queued : int option;
      (** shed new grid requests while the pool queue is deeper than
          this; [None] admits regardless of queue depth *)
  io_timeout : float option;
      (** per-frame read/write deadline, seconds; the slowloris and
          dead-reader eviction knob.  [None] waits forever *)
  idle_timeout : float option;
      (** reap a connection with no request in flight for this long *)
  sndbuf : int option;
      (** [SO_SNDBUF] for accepted sockets — bounds per-connection
          kernel memory and makes dead-reader eviction prompt *)
  retry_after_ms : int;
      (** backoff hint carried by [Overloaded] shed frames *)
}

val default_limits : limits
(** 64 connections, unbounded queue, 30s I/O deadline, 600s idle reap,
    kernel-default [SO_SNDBUF], 250ms retry hint. *)

type config = {
  socket : string;  (** Unix-domain socket path (note the ~107-byte limit) *)
  pool : Exec.Pool.t;
  policy : Resil.Supervise.policy;
  journal_dir : string option;
      (** holds the ["cells"] checkpoint journal and the ["server"]
          state journal; [None] disables persistence *)
  verbose : bool;  (** per-event logging on stderr *)
  limits : limits;
}

type t

val create : config -> t
(** Build the farm state: open (and validate) the journals.  The
    served-request counter starts at zero each daemon start; the server
    journal holds only the ["clean_shutdown"] marker written at drain.
    Does not touch the socket yet. *)

val stats : t -> Farm_protocol.farm_stats

val run : t -> unit
(** Bind the socket (unlinking a stale file), ignore [SIGPIPE], and
    accept clients until {!stop}; then join every client thread, remove
    the socket and journal the clean shutdown.  Blocks the calling
    thread for the daemon's lifetime. *)

val stop : t -> unit
(** Request a graceful drain: flips the stop flag and shuts down the
    listening socket so the accept loop unblocks.  Safe to call from a
    signal handler or any thread; idempotent; free of the publish race
    with {!run} (the flag and the listening fd are published in
    opposite orders, so one side always observes the other).  In-flight
    grid requests finish streaming, idle connections receive a
    [Draining] frame, then {!run} returns. *)
