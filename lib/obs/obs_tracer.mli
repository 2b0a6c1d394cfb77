(** Structured pipeline tracer: the object the cycle model emits into.

    One tracer accompanies one simulation run.  It maintains three views
    of the same event stream:

    - a bounded {!Obs_ring} log of every event (most recent
      window; see {!ring});
    - monotonic per-kind event counts, exported as a sorted name/value
      vector by {!counters} — the unit of the golden-stats regression
      harness;
    - per-instruction stage timestamps (fetch/dispatch/issue/complete/
      retire) plus derived histograms: ROB and RS occupancy sampled each
      cycle, RS residency (dispatch to issue) and issue-to-retire
      latency split by criticality tag.

    Emission is unconditional given a tracer; the zero-cost-when-off
    guarantee lives in the caller ({!Cpu_core} holds a [t option] and
    skips every call when observability is disabled). *)

type t

val create : unit -> t
(** The event ring keeps the most recent 65536 events. *)

(** {2 Emission — instruction lifecycle} *)

val on_fetch : t -> cycle:int -> dyn:int -> pc:int -> unit

val on_dispatch : t -> cycle:int -> dyn:int -> rob:int -> critical:bool -> unit

val on_select : t -> cycle:int -> dyn:int -> prio_override:bool -> unit
(** A scheduler selection.  [prio_override] marks picks where the CRISP
    PRIO vector changed the outcome: the pick differs from what the
    plain oldest-ready age-matrix reduction would have chosen. *)

val on_issue : t -> cycle:int -> dyn:int -> critical:bool -> unit

val on_mshr_retry : t -> cycle:int -> dyn:int -> unit

val on_complete : t -> cycle:int -> dyn:int -> unit

val on_retire : t -> cycle:int -> dyn:int -> critical:bool -> unit

(** {2 Emission — frontend and memory} *)

val on_redirect :
  t -> cycle:int -> dyn:int -> kind:[ `Mispredict | `Btb_miss | `Ras_mispredict ] -> unit

val on_l1d_miss : t -> cycle:int -> addr:int -> level:[ `Llc | `Mem ] -> unit

val on_l1i_miss : t -> cycle:int -> addr:int -> level:[ `Llc | `Mem ] -> unit

val on_prefetch : t -> cycle:int -> addr:int -> unit

val on_cycle : t -> rob_occupancy:int -> rs_occupancy:int -> unit
(** Per-cycle occupancy sample; call exactly once per simulated cycle. *)

(** {2 Queries} *)

val ring : t -> Obs_ring.t

val counters : t -> (string * int) list
(** All counters, sorted by name.  Includes ["events_recorded"] and
    ["events_dropped"] for the ring. *)

val counter : t -> string -> int
(** A single counter by name; 0 for unknown names. *)

val histograms : t -> (string * Obs_hist.t) list
(** All histograms, sorted by name. *)

(** Per-instruction stage timestamps; [-1] marks a stage not reached. *)
type stamp = {
  pc : int;
  fetch : int;
  dispatch : int;
  issue : int;
  complete : int;
  retire : int;
  critical : bool;
}

val num_dyns : t -> int
(** Upper bound (exclusive) of dynamic indices seen. *)

val stamp : t -> int -> stamp option
(** [None] for indices never fetched. *)

val retire_timeline : t -> int array
(** Retirements per cycle of the traced run (Figure 1's UPC), read off
    the retire stamps: one entry per {!on_cycle} sample, so a whole run
    from cycle 0 yields [stats.cycles] entries summing to
    [stats.retired]. *)
