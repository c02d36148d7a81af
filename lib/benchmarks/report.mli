(** Rendering the paper's tables and figures from measured results. *)

(** {2 Table 2 and Figure 2} *)

(** Absolute simulated seconds with the paper's numbers alongside. *)
val print_table2 :
  Format.formatter -> (Macro.state * (Macro.benchmark * Macro.cell) list) list -> unit

(** Per-benchmark ratios to the baseline state (which must be first). *)
val normalized :
  (Macro.state * (Macro.benchmark * Macro.cell) list) list ->
  (Macro.state * (Macro.benchmark * float) list) list

(** ASCII bar chart of the normalized overheads, paper values alongside. *)
val print_figure2 :
  Format.formatter -> (Macro.state * (Macro.benchmark * Macro.cell) list) list -> unit

(** {2 The paper's prose numbers} *)

type overhead_summary = {
  static_worst : float;  (** MS vs baseline *)
  static_mean : float;
  idle_worst : float;
  idle_mean : float;
  busy_worst : float;
  busy_mean : float;
}

val summarize :
  (Macro.state * (Macro.benchmark * Macro.cell) list) list -> overhead_summary

val print_summary :
  Format.formatter -> (Macro.state * (Macro.benchmark * Macro.cell) list) list -> unit

(** [percentile sorted p]: the element at rank [p * n / 100] of an
    ascending array of [n] samples (the last one past the end), 0 when
    empty.  Shared by the E17 latency and E18 pause summaries. *)
val percentile : int array -> int -> int

(** {2 Static content} *)

val table1 : string

val table3 : string

val figure1 : string
