(** Plain-text rendering of experiment results: aligned tables, percentage
    columns and ASCII bar charts, so [crisp_sim experiments] output reads
    like the paper's figures. *)

val print_table :
  title:string -> header:string list -> (string * float list) list -> unit
(** Aligned table with a label column and numeric columns (2 decimals). *)

val print_percent_table :
  title:string -> header:string list -> (string * float list) list -> unit
(** Like {!print_table} but values are printed as percentages with sign. *)

val print_bars : title:string -> (string * float) list -> unit
(** Horizontal ASCII bar chart (values >= 0 scaled to the maximum). *)

val print_series : title:string -> (int * float) array -> unit
(** A (x, y) series as a compact sparkline plus min/max annotations. *)

val windowed_mean : window:int -> int array -> (int * float) array
(** [(start, mean)] of each consecutive [window]-sample slice, the last
    one possibly shorter — e.g. Figure 1's UPC from per-cycle retirement
    counts.
    @raise Invalid_argument if [window <= 0]. *)

val mean : float list -> float
