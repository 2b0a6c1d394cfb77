(** TAGE branch predictor (Seznec), the state-of-the-art direction
    predictor listed in Table 1 of the paper.

    A bimodal base predictor is backed by several partially-tagged tables
    indexed with geometrically increasing global-history lengths.  The
    longest-history matching table provides the prediction; allocation on
    mispredictions steers each branch to the history length it needs. *)

type t

type config = {
  table_entries : int;  (** entries per tagged table, power of two *)
  tag_bits : int;
  counter_bits : int;  (** width of the prediction counters *)
  history_lengths : int array;  (** geometric series, one per tagged table *)
  base_entries : int;  (** bimodal base table size *)
}

val create : ?config:config -> ?seed:int -> unit -> t
(** [config] defaults to 6 tagged tables of 1024 entries, 9-bit tags,
    3-bit counters, history lengths 5..130 and a 4K-entry base — a
    compact TAGE in the spirit of the original paper. *)

val predict_and_update : t -> pc:int -> taken:bool -> bool
(** Predict [pc], then immediately train with the actual outcome and shift
    it into the global history.  Returns the prediction made {e before}
    training.  This immediate-update discipline matches trace-driven
    simulation, where the resolved outcome is known at fetch. *)

val mispredictions : t -> int
val predictions : t -> int

val self_check : t -> bool
(** Verify the incrementally-maintained folded-history registers against a
    direct re-fold of the outcome history window (test oracle for the
    rotate-XOR update; [true] when every table's registers match). *)
