(** Deterministic, seeded fault injection: the one place that knows
    what a fault is.

    A {e fault plan} is a set of triggers, each arming one registered
    {e site} — a named point that counts every pass through it and asks
    the plan whether that pass fires.  Sites key their hit counters by
    [(site, ident)], where [ident] identifies the logical unit of work
    (a grid cell, a memo key); this is what makes injection
    deterministic under a domain pool: the Nth hit of a given cell is
    the same event no matter which domain runs the cell or in what
    global order, so the same seed and plan produce the same faults at
    [--jobs 1], [2] or [8].

    Two site families, one per harness (see DESIGN.md "Resilience"):
    - {!compute_sites}, armed process-wide with {!arm} and passed
      through {!hit} (control) or {!mangle} (data):
      - ["pool.job"]       supervised-job thunk entry (hit)
      - ["runner.run"]     Runner.evaluate cache-miss computation (hit)
      - ["journal.read"]   journal entry payload on load (mangle)
      - ["journal.write"]  journal entry payload on record (mangle)
    - {!wire_sites}, the farm socket's two directions, counted per
      frame by the farm's [Chaos_proxy], which holds its own plan and
      applies {!fires} and {!damage} itself:
      - ["wire.up"]    client-to-server frames (data)
      - ["wire.down"]  server-to-client frames (data)

    Every compute firing is recorded as a {!Log.Fault_fired} event.
    When no plan is armed every compute site is a single atomic load —
    the layer costs nothing in production runs. *)

type action =
  | Throw  (** raise {!Injected} at the site; on the wire, sever the
               connection at the frame boundary *)
  | Stall of float  (** sleep that many seconds at the site, then go on *)
  | Corrupt  (** flip bytes of the payload (data sites only; a no-op at
                 control sites) *)
  | Truncate  (** keep the first half of the payload (data sites only;
                  a no-op at control sites) *)

type selector =
  | Any
  | Substring of string  (** fires only for idents containing the string *)
  | Bucket of { modulus : int; residue : int }
      (** fires only for idents whose hash bucket matches — a way for
          seeded random plans to pick a deterministic subset of cells
          without knowing their names *)

type count =
  | Nth of int  (** fire on exactly the nth hit (1-based) of that ident *)
  | From of int  (** fire on the nth hit and every one after *)

type trigger = {
  site : string;
  selector : selector;
  count : count;
  action : action;
}

type t

exception Injected of string
(** Raised by a [Throw] trigger; the payload is the site name. *)

val make : trigger list -> t
val triggers : t -> trigger list

val compute_sites : string list
(** The compute sites, in the order {!random} draws from. *)

val wire_sites : string list
(** ["wire.up"; "wire.down"]. *)

val random : seed:int -> ?stall:float -> unit -> t
(** A deterministic pseudo-random plan over {!compute_sites}: one to
    three triggers with bucket selectors, derived entirely from [seed].
    [stall] (default 0.5s) is the duration used for [Stall] actions. *)

val random_wire : seed:int -> t
(** A deterministic pseudo-random plan over ["wire.down"]: one or two
    triggers, every one [Nth]-counted so the fault supply is finite and
    a retrying client always converges. *)

val parse_spec : sites:string list -> string -> (trigger, string) result
(** Parse a CLI trigger spec:
    [SITE:ACTION[@SUBSTRING][#N|+N]] where ACTION is [crash], [corrupt],
    [truncate] or [stall=SECS] (bare [stall] is one second); [@S]
    selects idents containing [S]; [#N] fires on exactly the Nth hit
    and [+N] from the Nth hit onward (default [+1]).  A trigger that
    could never fire is an [Error]: [SITE] must be one of [sites], and
    a wire site takes no [@S] because frames carry no ident.
    Examples: ["runner.run:crash+1@mcf"], ["journal.write:corrupt#1"],
    ["runner.run:stall=3@mcf#1"], ["wire.down:truncate#3"]. *)

val trigger_to_string : trigger -> string
(** The spec {!parse_spec} reads back; a [Bucket] selector prints as
    [@bucket(RESIDUE mod MODULUS)]. *)

val action_to_string : action -> string

val fires : t -> ?ident:string -> string -> int -> action option
(** [fires plan ~ident site n]: the action of the first trigger on
    [site] whose selector matches [ident] (default [""]) and whose count
    covers the [n]th (1-based) hit. *)

val damage : action -> string -> string
(** The payload a data site passes on when [action] fires:
    deterministically byte-flipped for [Corrupt] (byte 0 always among
    them), its first half for [Truncate], unchanged otherwise. *)

val arm : t -> unit
(** Install the plan and reset all hit counters. *)

val disarm : unit -> unit
(** Remove the plan.  Counters are kept for inspection until the next
    {!arm}. *)

val hit : ?ident:string -> string -> unit
(** Count a pass through a control site; raise or stall if a trigger
    matches.  [Corrupt] and [Truncate] triggers are ignored at control
    sites. *)

val mangle : ?ident:string -> string -> string -> string
(** [mangle ~ident site payload] counts a pass through a data site and
    returns [payload] passed through {!damage} if a [Corrupt] or
    [Truncate] trigger matches.  [Throw]/[Stall] triggers behave as at
    control sites. *)

val hits : ?ident:string -> string -> int
(** Hit counter for [(site, ident)] since the last {!arm}. *)
