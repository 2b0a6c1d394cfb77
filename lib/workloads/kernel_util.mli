(** Shared code-generation helpers for the workload kernels.

    The central shape of every CRISP-sensitive loop (paper Figure 2) is a
    compact critical slice feeding a delinquent load, surrounded by a block
    of {e payload} work that consumes the loaded value.  When the miss
    resolves, payload and the next iteration's critical slice wake together
    as one ready burst: a baseline oldest-first scheduler drains the
    payload before restarting the miss chain, while CRISP issues the
    critical slice first and overlaps the payload with the next miss. *)

val payload :
  ?stores:int ->
  tag:string ->
  dep:Isa.reg ->
  buf:Isa.reg ->
  loads:int ->
  fp_ops:int ->
  unit ->
  Program.inst list
(** [payload ~tag ~dep ~buf ~loads ~fp_ops ()] emits a burst of work
    dependent on [dep] (a freshly loaded value): an address base derived
    from [dep], [loads] mutually independent cache-resident loads from the
    scratch buffer at [buf], [fp_ops] floating-point operations consuming
    the loaded values (mutually independent, no long chains), and [stores]
    writes back into the buffer.  Loads (two ports) and stores (one port)
    are what make the burst drain slowly past the baseline picker.  Total
    length is [2 + loads + fp_ops + stores] instructions.  The payload
    clobbers r48-r57; kernels must not use them elsewhere. *)

val scratch_buffer : Mem_builder.t -> Isa.reg * (Isa.reg * int)
(** Allocate the 4 KiB cache-resident scratch buffer the payload reads;
    returns the register to pass as [buf] and its initial binding. *)
