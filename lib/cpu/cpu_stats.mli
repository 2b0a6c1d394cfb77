(** Aggregate results of one timing simulation. *)

(** Attribution of cycles in which the ROB head could not retire (the
    paper's "cycles that instructions reside at the head of the ROB without
    retiring", Section 5.2). *)
type stall_breakdown = {
  dram_load : int;  (** head is a load served by DRAM *)
  llc_load : int;  (** head is a load served by the LLC *)
  other_load : int;
  long_op : int;  (** divide and other multi-cycle arithmetic *)
  other : int;
}

type t = {
  cycles : int;
  retired : int;
  loads : int;
  stores : int;
  branches : int;  (** dynamic conditional branches *)
  branch_mispredicts : int;
  btb_misses : int;
  ras_mispredicts : int;
  head_stalls : stall_breakdown;
  mlp_sum : float;  (** summed outstanding demand misses over miss cycles *)
  mlp_cycles : int;  (** cycles with at least one outstanding demand miss *)
  critical_retired : int;  (** retired micro-ops carrying the critical tag *)
  mem : Memory_system.stats;
}

val add : t -> t -> t
(** Field-wise sum — the stitch-up of per-window statistics from
    sampled simulation. *)

val sub : t -> t -> t
(** Field-wise [a - b]: the activity of a window bracketed by two
    snapshots of cumulative counters. *)

val zero : t
(** Identity for {!add}. *)

val ipc : t -> float
(** Also the paper's UPC: one micro-op per instruction in this model. *)

val mpki_llc : t -> float
(** Demand LLC misses per kilo-instruction. *)

val mpki_l1i : t -> float
val mispredicts_per_ki : t -> float

val avg_mlp : t -> float
(** Mean outstanding demand misses over cycles with at least one miss. *)

val pp_summary : Format.formatter -> t -> unit
