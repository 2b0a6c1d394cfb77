(** Event vocabulary of the pipeline tracer.

    Every event is four machine words — (cycle, kind, a, b) — so the ring
    buffer stores them without allocation.  The meaning of [a]/[b] depends
    on the kind:

    - instruction-lifecycle kinds ([fetch] .. [retire]): [a] is the
      dynamic trace index; [b] is the pc for [fetch], the ROB index for
      [dispatch], the prio-override flag for [select], the criticality
      flag for [issue]/[retire], and unused for the rest;
    - frontend redirects: [a] is the dynamic index of the faulting
      transfer, [b] unused;
    - memory kinds: [a] is the byte address, [b] unused ([l1i_miss] sets
      [b] to 1 when the fill comes from DRAM, 0 from the LLC). *)

val fetch : int
val dispatch : int
val select : int
val issue : int
val mshr_retry : int
val complete : int
val retire : int
val redirect_mispredict : int
val redirect_btb_miss : int
val redirect_ras : int
val l1d_miss_llc : int
val l1d_miss_mem : int
val l1i_miss : int
val prefetch : int

val kinds : int
(** Number of kinds: every code lies in [\[0, kinds)]. *)

val name : int -> string
(** Stable snake_case name of a kind code; ["unknown_<k>"] for codes
    outside the vocabulary. *)
