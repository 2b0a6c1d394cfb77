(** Configuration of SMARTS-style interval sampling.

    A sampled run divides the trace into [units] equal strides and
    detail-simulates one sampling unit per stride: [warmup_len]
    instructions of detailed warmup (absorbing the cold-start bias left
    by functional fast-forward) followed by [unit_len] measured
    instructions.  Everything between units is fast-forwarded
    functionally with microarchitectural warming. *)

type t = {
  unit_len : int;  (** measured instructions per sampling unit *)
  warmup_len : int;  (** detailed warmup instructions before each unit *)
  units : int;  (** sampling units (equal strides across the trace) *)
}

val default : t
(** 30 units of 1k measured instructions behind 2k detailed warmup. *)

val validate : t -> (unit, string) result

val to_string : t -> string
(** Canonical [key=value] comma list, e.g. ["units=30,unit=1000,warmup=2000"].
    Stable: used verbatim in farm cell keys and memo identities, so equal
    configs always serialise identically. *)

val of_string : string -> (t, string) result
(** Parse the {!to_string} format; unspecified fields take their
    {!default} values.  Validation errors are returned, not raised — this
    is the farm admission gate's parser. *)
