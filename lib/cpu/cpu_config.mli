(** Core configuration (Table 1 of the paper) and the RS/ROB variants used
    by the sensitivity study of Section 5.4.

    The paper simulates one machine and varies only the window and the
    scheduler policy, so only those (plus the memory hierarchy, which
    tests replace, and the debug scoreboard) are fields; the rest of
    Table 1 is the constants below. *)

type t = {
  rob_size : int;  (** 224 *)
  rs_size : int;  (** unified reservation station, 96 *)
  policy : Scheduler.policy;
  mem : Memory_system.params;
  scoreboard : bool;
      (** run the debug-mode pipeline scoreboard ({!Scoreboard}): per-cycle
          invariant checks on ROB/RS/age-matrix state.  Off by default; the
          oracle is read-only, so statistics are identical either way.
          (Observability has no flag: passing [?tracer] to
          {!Cpu_core.run} is the switch.) *)
}

(** {2 Table 1 constants} *)

val fetch_width : int
(** Frontend (fetch and dispatch) width: 6. *)

val issue_width : int
(** Scheduler selections per cycle: 6, as in "6-oldest-ready-first". *)

val retire_width : int
(** Retirement width: 6. *)

val alu_ports : int
(** 4 *)

val load_ports : int
(** 2 *)

val store_ports : int
(** 1 *)

val frontend_depth : int
(** Fetch-to-dispatch latency: 5 cycles. *)

val redirect_penalty : int
(** Mispredict resolve-to-fetch penalty: 12 cycles. *)

val btb_miss_penalty : int
(** Bubble for a taken branch that misses the BTB: 2 cycles. *)

val btb_entries : int
(** 8192 *)

val ras_depth : int
(** Return-address stack entries: 32. *)

val ftq_entries : int
(** FDIP run-ahead depth in fetch blocks: 128. *)

val seed : int
(** RAND scheduler slot-allocation seed. *)

val lq_size : t -> int
(** Load buffer: [max 16 (64 * rob_size / 224)], i.e. 64 at the
    224-entry ROB, scaled with the ROB. *)

val sq_size : t -> int
(** Store buffer: [max 16 (128 * rob_size / 224)], i.e. 128 at the
    224-entry ROB, scaled with the ROB. *)

val skylake : t
(** The baseline configuration of Table 1 with the oldest-ready scheduler. *)

val with_policy : Scheduler.policy -> t -> t

val with_scoreboard : bool -> t -> t

val with_window : rs:int -> rob:int -> t -> t
(** Set the out-of-order window for the Section 5.4 study; the load and
    store queues follow the ROB ({!lq_size}, {!sq_size}). *)

val pp : Format.formatter -> t -> unit
(** Print the configuration as the rows of Table 1. *)
