(** Process-wide log of resilience events.

    Supervisors, the journal and the fault-injection layer all append
    here; the CLI reads it back to print the end-of-run failure summary
    and to decide the exit code, and the determinism tests compare
    per-job projections of it across worker counts.  Thread-safe; events
    for one [ident] are recorded in that job's own (sequential) order,
    so the per-ident projection is deterministic even though the global
    interleaving across worker domains is not. *)

type event =
  | Fault_fired of { site : string; ident : string; action : string }
      (** the armed fault plan fired at a registered site *)
  | Retry of { ident : string; attempt : int; delay : float; cause : string }
      (** a supervised job is about to be resubmitted ([attempt] is the
          1-based retry number, [delay] the backoff sleep before it) *)
  | Degraded of { ident : string; error : string }
      (** a grid cell or figure gave up and was replaced by an error
          marker *)
  | Quarantined of { ident : string; reason : string }
      (** a journal entry failed validation (or a checkpoint write
          failed) and was discarded rather than trusted *)
  | Restored of { ident : string }
      (** a grid cell was served from the on-disk journal *)

val record : event -> unit

val events : unit -> event list
(** In record order. *)

val clear : unit -> unit

val by_ident : unit -> (string * event list) list
(** Events grouped by ident, groups sorted by ident, events within a
    group in record order — a canonical form independent of worker
    interleaving. *)

val counts : unit -> int * int * int * int * int
(** [(faults, retries, degraded, quarantined, restored)]. *)

val pp_summary : Format.formatter -> unit -> unit
(** One-line counters followed by every degradation and quarantine. *)
