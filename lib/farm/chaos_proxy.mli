(** A deterministic wire-level chaos proxy for the simulation farm.

    The proxy sits between a {!Farm_client} and a [crisp_sim serve] daemon
    on a second Unix-domain socket, parses the framed stream in both
    directions, and injects faults at exact frame boundaries according
    to a {!Resil.Fault_plan.t} over the wire sites ["wire.up"]
    (client→server) and ["wire.down"] (server→client).  Per frame the
    proxy asks {!Resil.Fault_plan.fires} with the frame number and acts:
    - [Throw]: sever the connection at this frame boundary;
    - [Stall s]: hold the frame [s] seconds, then forward it intact;
    - [Corrupt]/[Truncate]: write the encoded frame through
      {!Resil.Fault_plan.damage}, then sever — the peer must raise
      [Frame_error] (a blown length prefix or a torn frame), never hang.

    Because triggers count {e global, monotonic} per-direction frame
    numbers (a client that reconnects does not reset the count), a
    seeded plan fires the same faults at the same frames on every run,
    which is what lets the farm chaos self-check assert byte-identical
    convergence.  The plan and counters belong to the proxy instance;
    the process-wide armed plan is never consulted. *)

type t

val start : listen:string -> upstream:string -> plan:Resil.Fault_plan.t -> t
(** Bind [listen] (unlinking a stale socket file) and start proxying
    every connection to [upstream].  Each accepted connection gets a
    fresh upstream connection and two pump threads; if [upstream] is
    not reachable the client is closed immediately — indistinguishable
    from a crashed daemon, which is the point. *)

val stop : t -> unit
(** Stop accepting, sever every live connection, join all pump
    threads, close and unlink the listening socket.  Idempotent. *)

val fired : t -> (string * int * Resil.Fault_plan.action) list
(** Every fault fired so far, in firing order: the wire site, the
    global frame number that triggered it, and the action. *)

val frames : t -> string -> int
(** Global frames forwarded-or-faulted on that wire site so far.
    @raise Not_found if the site is not one of
    {!Resil.Fault_plan.wire_sites}. *)
