(** Automated design-space exploration.

    The paper's conclusion names "an improved automated design space
    exploration" as future work and claims the flow's speed "allows the
    designers to perform a very fast design space exploration". This
    module provides that loop: sweep candidate platforms (tile counts and
    interconnects), run the full flow on each, and keep the
    guarantee/area Pareto front. Every point carries the complete flow
    result, so the designer can go straight from a chosen point to the
    generated project. *)

type point = {
  tile_count : int;
  interconnect : Arch.Template.interconnect_choice;
  guarantee : Sdf.Rational.t option;  (** worst-case iteration throughput *)
  slices : int;  (** platform area including interconnect *)
  flow_seconds : float;  (** wall time of the flow on this point *)
  flow : Design_flow.t;
}

val interconnect_label : Arch.Template.interconnect_choice -> string

val explore :
  Appmodel.Application.t ->
  ?tile_counts:int list ->
  ?interconnects:Arch.Template.interconnect_choice list ->
  ?options:Mapping.Flow_map.options ->
  ?jobs:int ->
  unit ->
  point list * (int * string * string) list
(** Run the flow on every (tile count, interconnect) combination. Defaults:
    1 .. actor-count tiles; FSL and the default NoC. Returns the feasible
    points and the failures as [(tiles, interconnect, reason)]. Pinned
    bindings in [options] are dropped for platforms with fewer tiles than
    they reference.

    This is {!explore_anytime}'s sweep loop with a single chunk, no
    checkpoint and no budget. [jobs] (default 1) fans the points out over
    an {!Exec.Pool} in one round. Points and failures come back in the
    sequential sweep's order regardless of [jobs] — only [flow_seconds]
    (wall time of each point's flow) may differ between runs. With
    [jobs <= 1] no pool is created, so a sequential sweep may itself run
    inside a pool task. An exception inside a point — an ambient
    {!Exec.Budget.Expired} included — escapes [explore]. *)

(** {1 Results}

    One implementation each of dominance, the Pareto filter, best-under-area
    and the table, all over {!summary}, the deterministic projection of a
    {!point} (no wall time, no flow). The point-level names go through
    {!summarize}. *)

type summary = {
  s_interconnect : string;  (** {!interconnect_label} of the point *)
  s_tile_count : int;
  s_guarantee : Sdf.Rational.t option;
  s_slices : int;
}

val summarize : point -> summary

val pareto_summaries : summary list -> summary list
(** The throughput/area Pareto front: summaries not dominated by another
    with at least the same guarantee and at most the same area. Sorted by
    area, sweep order among equal areas. Summaries without a guarantee
    never enter the front. *)

val best_summary : summary list -> max_slices:int -> summary option
(** Highest guarantee among summaries within the area budget; on equal
    guarantees the first in sweep order wins. *)

val pp_summary_table : Format.formatter -> summary list -> unit
(** The sweep table — stable across runs. *)

val pareto : point list -> point list
(** {!pareto_summaries} on points; returns the points themselves. *)

val best_under_area : point list -> max_slices:int -> point option
(** {!best_summary} on points. *)

val pp_table : Format.formatter -> point list -> unit
(** {!pp_summary_table} plus each point's wall-time column. *)

(** {1 Anytime exploration}

    A sweep that can stop on a wall-clock deadline, checkpoint what it
    has, and resume exactly where it stopped. Results are {!summary}
    values, which is what makes a resumed report byte-identical to an
    uninterrupted one. *)

type degradation = {
  d_reason : Exec.Budget.reason;  (** why the sweep stopped early *)
  d_evaluated : int;  (** points evaluated in this run *)
  d_skipped : int;  (** points not evaluated before the budget ran out *)
  d_best : summary option;
      (** tightest bound so far: highest guarantee, then fewest slices *)
}

type anytime = {
  a_summaries : summary list;  (** feasible points, sequential sweep order *)
  a_failures : (int * string * string) list;
      (** infeasible points as [(tiles, interconnect, reason)] *)
  a_resumed : int;  (** points adopted from the resume checkpoint *)
  a_degradation : degradation option;  (** [Some] iff the result is partial *)
}

val explore_anytime :
  Appmodel.Application.t ->
  ?tile_counts:int list ->
  ?interconnects:Arch.Template.interconnect_choice list ->
  ?options:Mapping.Flow_map.options ->
  ?jobs:int ->
  ?deadline:Exec.Budget.deadline ->
  ?task_timeout:float ->
  ?retry:Exec.Pool.retry ->
  ?cancel:Exec.Budget.token ->
  ?checkpoint:string ->
  ?resume:string ->
  ?metrics:Obs.Metrics.t ->
  unit ->
  (anytime, string) result
(** {!explore}, budgeted. The sweep runs in chunks of [jobs] design
    points (one pool round each); between chunks it checks [deadline] and [cancel], and after
    every chunk it atomically rewrites [checkpoint] (see
    {!Dse_checkpoint}). Each point additionally runs under [task_timeout]
    / [retry] via {!Exec.Pool.run_budgeted}, so one pathological design
    point times out as a typed failure instead of hanging the sweep.

    When the budget fires mid-sweep the result carries
    [a_degradation = Some _]; points cut short by the {e sweep} deadline
    (as opposed to their own [task_timeout]) count as skipped and are
    re-run by [resume]. [resume] loads a checkpoint (validating version
    and application name), adopts its entries, and evaluates only the
    remainder — the combined result is byte-identical to an uninterrupted
    run. [Error] is returned only for an unusable [resume] file.

    [metrics] receives [dse.points.evaluated] / [.skipped] / [.resumed],
    [dse.checkpoint.writes] and [exec.task.timeouts] / [.gave_up] /
    [.retries] counters, and the shared analysis cache's activity during
    this sweep: [sdf.memo.hits] / [.misses] / [.evictions] and
    [sdf.mcm.runs] / [.fallbacks] counters and an [sdf.memo.entries]
    gauge. *)

val pp_degradation : Format.formatter -> degradation -> unit
