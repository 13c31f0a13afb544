(** The complete mapping step (paper §5.1): SDF3's role in the flow.

    [run] binds the application to the platform, allocates NoC wires,
    inserts the Figure-4 communication model for every inter-tile channel,
    sizes the buffers, builds the per-tile static-order schedules, and
    predicts the worst-case throughput of the mapped system. The result is
    the flow's mapping artifact: everything MAMPS needs to generate the
    platform, plus the throughput guarantee.

    When the application carries a throughput constraint and the first
    prediction misses it, buffer capacities (αsrc, αdst and intra-tile
    channel capacities) are doubled and the mapping re-analysed, up to
    [buffer_growth_rounds] times — network parameters (w, αn) are hardware
    properties and stay fixed. *)

type options = {
  weights : Cost.weights;
  fixed : (string * int) list;  (** pre-pinned actors (I/O on the master) *)
  excluded_tiles : int list;
      (** tiles no actor may use (dead PEs, for recovery) *)
  forbidden_hops : (int * int) list;
      (** directed NoC mesh links no route may use (dead links) *)
  forbidden_pairs : (int * int) list;
      (** directed tile pairs no channel may cross (dead FSL links) *)
  wires_per_connection : int;  (** NoC wires requested per connection *)
  buffer_growth_rounds : int;
  throughput_max_steps : int;  (** state-space budget for the analysis *)
  memo : bool;
      (** route throughput analyses through the shared
          {!Sdf.Throughput.analyse_memo} cache, {!reanalyse} included
          (default [true]; results are byte-identical either way — the
          CLI's [--no-memo] clears this for measurement) *)
  analysis : Sdf.Throughput.method_;
      (** throughput analysis method (default [`State_space]; the CLI's
          [--analysis] flag selects [`Mcm]/[`Auto] — any method returns the
          same exact bound, see {!Sdf.Throughput}) *)
}

val default_options : options

(** Why a mapping could not be produced. *)
type error =
  | Infeasible_binding of string
      (** no feasible tile for some actor, or no implementation matching
          the bound tile's processor *)
  | Noc_allocation_failed of string
      (** NoC oversubscribed even at one wire per connection *)
  | Noc_partitioned of { src : int; dst : int }
      (** the forbidden hops disconnect two communicating tiles — no wire
          count can fix this, so the growth retry is skipped *)
  | Expansion_failed of string
      (** the communication-model expansion or scheduling step rejected
          the (re-timed) graph *)
  | Memory_overflow of Memory_dim.report
      (** the dimensioned buffers and code do not fit the tile memories *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

type t = {
  application : Appmodel.Application.t;
  platform : Arch.Platform.t;
  options : options;
      (** the options this mapping was produced with — recovery re-runs the
          pipeline from them with the dead resources excluded *)
  binding : Binding.t;
  timed_graph : Sdf.Graph.t;
      (** application graph re-timed with the bound implementations *)
  expansion : Comm_map.expansion;  (** the platform-aware graph *)
  actor_orders : Sdf.Execution.resource_binding list;
      (** application-actor static order per tile, over [timed_graph] ids —
          what MAMPS translates into the C scheduler table *)
  schedules : Sdf.Execution.resource_binding list;
      (** full PE order (communication work included) per tile, over the
          expanded graph's ids, named ["tile<i>"] *)
  exec_options : Sdf.Execution.options;
      (** ready-to-use analysis options: schedules as resources, structural
          concurrency bounds only *)
  predicted : Sdf.Throughput.result;
  noc_allocation : Arch.Noc.allocation option;
  memory : Memory_dim.report;
  buffer_scale : int;  (** growth factor finally applied (1, 2, 4, ...) *)
  meets_constraint : bool option;
      (** [None] when the application has no throughput constraint *)
}

val resource_name : int -> string
(** ["tile<i>"]: the resource name used in schedules for tile [i]. *)

val run :
  Appmodel.Application.t ->
  Arch.Platform.t ->
  ?options:options ->
  unit ->
  (t, error) result
(** Errors are typed (see {!error}): infeasible binding, NoC
    oversubscription even at one wire per connection, inconsistent graphs,
    tile memory overflow. A mapping whose prediction misses the constraint
    is returned (with [meets_constraint = Some false]) rather than failed,
    so callers can inspect the best achievable mapping. *)

val throughput : t -> Sdf.Rational.t option
(** Predicted worst-case iteration throughput; [None] when the analysis
    deadlocked or did not converge. *)

val analysis_budget : t -> int option
(** [Some steps] when the throughput analysis hit its step budget without
    finding a recurrence — the prediction is then inconclusive, not a
    verdict — [None] otherwise. *)

val first_iteration_latency : t -> int option
(** Worst-case pipeline fill: cycles from reset until the first complete
    graph iteration (the first MCU out, for the case study) on the mapped
    platform model. [None] if the model cannot complete an iteration.

    Computed symbolically on {!Sdf.Hsdf.expand_csr} of the expansion under
    [exec_options]: an edge with initial tokens holds from reset, so the
    first iteration ends with the longest path over the zero-token edges,
    taken in Kahn order; a zero-token cycle gives [None]. A graph the
    expansion rejects (too large, inconsistent, unsupported options) runs
    the execution engine for one iteration instead, as {!Sdf.Throughput}
    falls back to the state space. The conformance suite holds both ways
    equal on every seed. *)

val reanalyse :
  t -> times:(string -> int) -> ?analysis:Sdf.Throughput.method_ -> unit ->
  (Sdf.Throughput.result, string) result
(** Re-run the throughput analysis of an existing mapping with different
    application-actor execution times (by actor name) — binding, buffer
    sizes, schedules and communication parameters unchanged. This computes
    the paper's "expected" throughput: the SDF3 prediction fed with
    measured instead of worst-case times (§6.1). [analysis] selects the
    method (default [`State_space]); the step budget and the use of the
    analysis cache come from the mapping's own [options]. *)

val pp_summary : Format.formatter -> t -> unit

val to_xml : t -> Xmlkit.Xml.t
(** The mapping artifact in the flow's common format — the machine-readable
    interchange whose absence in earlier flows forced "the user to manually
    translate the output format of the mapping tool into the interchange
    format of the platform generation tool" (paper §2): binding, per-tile
    static orders, buffer capacities, inter-tile connections, and the
    throughput guarantee. *)

val to_string : t -> string
