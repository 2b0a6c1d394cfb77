(** Figure grids as plain data.

    A grid is the (application x column) cell matrix behind a figure:
    every cell is a pure, memoised simulation result keyed by a workload
    name, a scheduler-variant column and the instruction budgets.  The
    specs here are the {e single} source of truth shared by three
    consumers that must agree byte-for-byte:

    - {!Experiments} runs them through the supervised job graph and
      renders them ({!render});
    - the simulation-farm daemon ([crisp_sim serve]) decomposes wire requests
      into the same cells, dedups them across clients and journals them;
    - [crisp_sim client] rebuilds the rows from streamed cell frames and
      renders them with the same {!render}.

    Everything in a {!spec} is wire-encodable scalar data (no closures,
    no configs), so a grid request can travel over the farm protocol and
    still name exactly the same memo keys on the far side. *)

type metric =
  | Gain  (** IPC of the column's variant over the OOO baseline, minus 1 *)
  | Slice_size  (** average dynamic load-slice length (Figure 4) *)
  | Static_count  (** tagged static instructions (Figure 11) *)

type column = {
  label : string;  (** printed column header *)
  variant : string;
      (** scheduler variant by name: ["ooo"], ["crisp"], ["crisp-load"],
          ["crisp-branch"], ["ibda-1k"], ["ibda-8k"], ["ibda-64k"] or
          ["ibda-inf"] *)
  threshold : float option;
      (** miss-contribution threshold override; ["crisp"] only *)
  window : (int * int) option;  (** (rs, rob) override of the skylake window *)
}

type spec = {
  tag : string;  (** grid name: ["fig7"] etc; also the cell-ident prefix *)
  title : string;
  with_mean : bool;  (** append an arithmetic-mean row when rendering *)
  metric : metric;
  columns : column list;
  names : string list;  (** workload names, in figure (catalog) order *)
}

val fig4 : spec
val fig7 : spec
val fig8 : spec
val fig9 : spec
val fig10 : spec
val fig11 : spec

val catalog : spec list
(** The farm-servable grids, in figure order. *)

val find : string -> spec option
(** Look a grid up by {!spec.tag}. *)

val metric_to_string : metric -> string
val metric_of_string : string -> (metric, string) result

val variant_of_column : column -> (Runner.variant, string) result
(** Resolve a column to the runner variant it names; [Error] explains an
    unknown variant name or a threshold on a non-CRISP column. *)

val validate : spec -> (unit, string) result
(** Everything {!cell_value} would reject, checked up front: unknown
    workload names, unresolvable columns, empty rows or columns — the
    daemon runs this on every request before spawning work. *)

val cell_value :
  ?sample:Sample_config.t ->
  eval_instrs:int -> train_instrs:int -> name:string -> metric:metric ->
  column -> float
(** Compute one cell (memoised through {!Runner.evaluate}).  With
    [sample] set, cells use sampled timing runs (a separate memo
    identity); artifact metrics come from the full-fidelity FDO pass
    either way.
    @raise Invalid_argument on a column {!validate} would reject. *)

val row_order : string list -> int list
(** The indices of [names] in scheduling order: the long-pole workloads
    (mcf, xhpcg, omnetpp, moses) first, then the rest, each group in its
    original order.  Scheduling order never changes cell values, only
    how soon the slowest rows start. *)

val full_rows :
  spec -> (string * float list) list -> (string * float list) list
(** The rows as figures report them: unchanged, plus the mean row when
    [with_mean] is set. *)

val render : spec -> (string * float list) list -> unit
(** Print the figure text for the grid's rows (without the mean row —
    {!render} appends it itself).  Degraded cells are [Float.nan],
    rendered as [--] by {!Report}. *)
