(** A deterministic wire-level chaos proxy for the simulation farm.

    The proxy sits between a {!Farm_client} and a [crisp_sim serve] daemon
    on a second Unix-domain socket, parses the framed stream in both
    directions, and injects faults at exact frame boundaries according
    to a {!plan} — the wire counterpart of {!Resil.Fault_plan}'s
    compute-path injection.  Because triggers count {e global,
    monotonic} per-direction frame numbers (a client that reconnects
    does not reset the count), a seeded plan fires the same faults at
    the same frames on every run, which is what lets the farm chaos
    self-check assert byte-identical convergence. *)

(** [Up] is client→server traffic; [Down] (the default in specs and
    random plans) is server→client. *)
type direction = Up | Down

type action =
  | Delay of float
      (** hold the frame for that many seconds, then forward it intact
          — a transparent slowdown *)
  | Stall of float
      (** hold the frame for that many seconds, then sever the
          connection — a wedged peer that eventually dies *)
  | Truncate
      (** forward a strict prefix of the encoded frame, then sever —
          the reader must raise [Frame_error], never hang *)
  | Corrupt_len
      (** forward the frame with its length prefix's top byte flipped
          (declared length blows the {!Farm_frame.max_frame_bytes}
          cap), then sever *)
  | Drop  (** sever the connection at this frame boundary *)

type trigger = {
  direction : direction;
  count : Resil.Fault_plan.count;
      (** which global frame number(s) on that direction fire it *)
  action : action;
}

type plan = trigger list

val parse_spec : string -> (trigger, string) result
(** Parse a CLI wire-fault spec: [[up:|down:]ACTION[#N|+N]] where
    ACTION is [delay[=SECS]], [stall[=SECS]], [truncate],
    [corrupt-len] or [drop]; [#N] fires on exactly the Nth frame of
    that direction and [+N] from the Nth frame onward.  Defaults:
    direction [down], count [#1].  Examples: ["down:drop#3"],
    ["up:corrupt-len"], ["stall=0.5#2"]. *)

val random : seed:int -> plan
(** A deterministic pseudo-random plan: one or two downstream triggers,
    every one [Nth]-counted so the fault supply is finite and a
    retrying client always converges. *)

val trigger_to_string : trigger -> string
val direction_to_string : direction -> string
val action_to_string : action -> string

type t

val start : listen:string -> upstream:string -> plan:plan -> t
(** Bind [listen] (unlinking a stale socket file) and start proxying
    every connection to [upstream].  Each accepted connection gets a
    fresh upstream connection and two pump threads; if [upstream] is
    not reachable the client is closed immediately — indistinguishable
    from a crashed daemon, which is the point. *)

val stop : t -> unit
(** Stop accepting, sever every live connection, join all pump
    threads, close and unlink the listening socket.  Idempotent. *)

val fired : t -> (direction * int * action) list
(** Every fault fired so far, in firing order, with the global frame
    number that triggered it. *)

val frames : t -> direction -> int
(** Global frames forwarded-or-faulted on that direction so far. *)
