(** Core configuration (Table 1 of the paper) and the RS/ROB variants used
    by the sensitivity study of Section 5.4. *)

type t = {
  fetch_width : int;  (** frontend width (6) *)
  issue_width : int;
      (** scheduler selection budget per cycle (6); historically tied to
          [fetch_width], now independent for width-sensitivity studies *)
  retire_width : int;  (** retirement width (6) *)
  rob_size : int;  (** 224 *)
  rs_size : int;  (** unified reservation station, 96 *)
  lq_size : int;  (** load buffer, 64 *)
  sq_size : int;  (** store buffer, 128 *)
  alu_ports : int;  (** 4 *)
  load_ports : int;  (** 2 *)
  store_ports : int;  (** 1 *)
  frontend_depth : int;  (** fetch-to-dispatch latency in cycles *)
  redirect_penalty : int;  (** mispredict resolve-to-fetch penalty *)
  btb_miss_penalty : int;  (** bubble for a taken branch missing the BTB *)
  btb_entries : int;  (** 8192 *)
  ras_depth : int;
  ftq_entries : int;  (** FDIP run-ahead depth in fetch blocks (128) *)
  policy : Scheduler.policy;
  mem : Memory_system.params;
  seed : int;  (** RAND scheduler slot-allocation seed *)
  scoreboard : bool;
      (** run the debug-mode pipeline scoreboard ({!Scoreboard}): per-cycle
          invariant checks on ROB/RS/age-matrix state.  Off by default; the
          oracle is read-only, so statistics are identical either way.
          (Observability has no flag: passing [?tracer] to
          {!Cpu_core.run} is the switch.) *)
}

val skylake : t
(** The baseline configuration of Table 1 with the oldest-ready scheduler. *)

val with_policy : Scheduler.policy -> t -> t

val with_issue_width : int -> t -> t

val with_scoreboard : bool -> t -> t

val with_window : rs:int -> rob:int -> t -> t
(** Scale the out-of-order window for the Section 5.4 study.  The load and
    store queues scale proportionally with the ROB. *)

val pp : Format.formatter -> t -> unit
(** Print the configuration as the rows of Table 1. *)
