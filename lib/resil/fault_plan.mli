(** Deterministic, seeded fault injection.

    A {e fault plan} is a set of triggers, each arming one registered
    {e site} — a named point in the pipeline that calls {!hit} (control
    sites) or {!mangle} (data sites) every time execution passes it.
    Sites key their hit counters by [(site, ident)], where [ident]
    identifies the logical unit of work (a grid cell, a memo key); this
    is what makes injection deterministic under a domain pool:
    the Nth hit of a given cell is the same event no matter which domain
    runs the cell or in what global order, so the same seed and plan
    produce the same faults at [--jobs 1], [2] or [8].

    Registered sites ({!standard_sites}; see DESIGN.md "Resilience"),
    one per real failure boundary:
    - ["pool.job"]       supervised-job thunk entry (hit)
    - ["runner.run"]     Runner.evaluate cache-miss computation (hit)
    - ["journal.read"]   journal entry payload on load (mangle)
    - ["journal.write"]  journal entry payload on record (mangle)

    Every firing is recorded as a {!Log.Fault_fired} event.  When no
    plan is armed every site is a single atomic load — the layer costs
    nothing in production runs.  Wire faults on the farm socket are
    the farm's [Chaos_proxy]'s job, not this module's. *)

type action =
  | Throw  (** raise {!Injected} at the site *)
  | Stall of float  (** sleep that many seconds at the site *)
  | Corrupt  (** flip bytes of the payload (data sites only; a no-op at
                 control sites) *)

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

val none : t
val make : trigger list -> t
val triggers : t -> trigger list

val standard_sites : string list
(** The registered sites, in the order {!random} draws from. *)

val random : seed:int -> ?stall:float -> unit -> t
(** A deterministic pseudo-random plan over {!standard_sites}: one to
    three triggers with bucket selectors, derived entirely from [seed].
    [stall] (default 0.5s) is the duration used for [Stall] actions. *)

val parse_spec : string -> (trigger, string) result
(** Parse a CLI trigger spec:
    [SITE:ACTION[@SUBSTRING][#N|+N]] where ACTION is [crash], [corrupt]
    or [stall=SECS]; [@S] selects idents containing [S]; [#N] fires on
    exactly the Nth hit and [+N] from the Nth hit onward (default [+1]).
    [SITE] must be one of {!standard_sites}: a trigger on any other name
    could never fire, so it is an [Error].
    Examples: ["runner.run:crash+1@mcf"], ["journal.write:corrupt#1"],
    ["runner.run:stall=3@mcf#1"]. *)

val arm : t -> unit
(** Install the plan and reset all hit counters. *)

val disarm : unit -> unit
(** Remove the plan.  Counters are kept for inspection until the next
    {!arm}. *)

val hit : ?ident:string -> string -> unit
(** Count a pass through a control site; raise or stall if a trigger
    matches.  [Corrupt] triggers are ignored at control sites. *)

val mangle : ?ident:string -> string -> string -> string
(** [mangle ~ident site payload] counts a pass through a data site and
    returns [payload], byte-flipped if a [Corrupt] trigger matches
    (deterministically — same input, same corruption).  [Throw]/[Stall]
    triggers behave as at control sites. *)

val hits : ?ident:string -> string -> int
(** Hit counter for [(site, ident)] since the last {!arm}. *)

val action_to_string : action -> string
