(** Worst-case throughput analysis.

    Two interchangeable methods compute the same exact bound:

    - {b [`State_space]} — Ghamarian et al.'s approach (ACSD 2006) as used
      by SDF3: execute the graph self-timed under worst-case execution
      times; because the timed execution is deterministic and (for a
      consistent, resource-constrained graph) has finitely many states, it
      eventually revisits a state. The executions between two visits form
      the periodic phase; throughput is the number of graph iterations
      completed in one period divided by the period length.
    - {b [`Mcm]} — symbolic (max,+): expand to HSDF ({!Hsdf}, with the
      auto-concurrency and static-order restrictions encoded structurally)
      and take the maximum cycle ratio ({!Mcm}); the worst-case throughput
      is its reciprocal, with no state space to walk. On the analyses the
      expansion supports, the returned rational is {e exactly equal} to the
      state-space one — a conformance oracle and a property test pin that
      equivalence. Graphs or options the expansion cannot encode fall back
      to the state space (counted in {!mcm_stats}).
    - {b [`Auto]} — [`Mcm] when the expansion precheck admits the input,
      [`State_space]-by-fallback otherwise. [`Mcm] and [`Auto] currently
      resolve identically; [`Mcm] states intent, [`Auto] is for callers
      that just want the fastest sound method.

    Throughput is expressed in {e graph iterations per clock cycle}; the
    paper's case study reports the same quantity as "MCUs per cycle" since
    one MJPEG iteration decodes one MCU. *)

type result =
  | Throughput of {
      throughput : Rational.t;  (** iterations per clock cycle *)
      transient_time : int;  (** cycles until the periodic phase starts *)
      period_time : int;  (** length of one period in cycles *)
      period_iterations : int;  (** iterations completed per period *)
    }
  | Deadlocked of { time : int; iterations : int }
  | No_recurrence
      (** the state space closed degenerately: a state revisit with a
          zero-length or zero-iteration period, which no finite buffer
          refinement can fix *)
  | Budget_exhausted of { steps : int }
      (** the state space did not close within the step budget ([steps]
          advances explored); either the graph needs unbounded buffering
          (inconsistent/unbounded auto-concurrency) or the budget was too
          small — a budget problem, not a verdict about the graph *)

type method_ = [ `State_space | `Mcm | `Auto ]
(** Analysis method selection, see the module preamble. Where each
    default is set:
    - [`State_space]: {!analyse} and {!analyse_memo},
      {!Mapping.Flow_map.default_options}, the conformance engine's
      options, and the CLI's [mjpeg], [profile] and [conformance]
      commands ([--analysis]);
    - [`Auto]: {!Buffers.size_for_throughput} and {!Buffers.trade_off},
      the CLI's [dse] command, and a served job's [analysis] parameter. *)

val analyse :
  ?options:Execution.options ->
  ?max_steps:int ->
  ?method_:method_ ->
  Graph.t ->
  result
(** [analyse g] explores at most [max_steps] (default [200_000]) clock
    advances and returns {!Budget_exhausted} when that budget is hit.
    [options] carries resource bindings and static orders so that
    the analysis models the mapped platform; its [firing_time] must be
    deterministic. The step loop polls {!Exec.Budget.check} every 1024
    steps, so an ambient deadline or cancellation token interrupts the
    analysis by raising {!Exec.Budget.Expired}. With [`Mcm]/[`Auto] the
    symbolic path runs instead when {!Hsdf.supported} admits the input
    ([max_steps] then only bounds a run-time fallback). *)

(** {1 Memoized front-end}

    The flow's hot path: the mapping flow re-analyses structurally
    identical graphs across design points and buffer-search rounds.
    {!analyse_memo} consults one process-wide bounded {!Memo} table
    keyed by {!Graph.structural_key}, {!Execution.options_key} and
    [max_steps] — every input {!analyse} depends on — so a hit is
    byte-identical to recomputation at any [-j] and with the cache
    bypassed. Bypassing is the caller's choice, made by calling
    {!analyse} instead: in the flow that is the [memo] field of
    {!Mapping.Flow_map.options}, which the CLI's [--no-memo] clears.
    Runs whose options embed closures ([firing_time]/[on_event]) are
    never cached. The cache is shared across domains (thread-safe) and
    across [Dse.explore]/conformance calls in one process. *)

val analyse_memo :
  ?options:Execution.options ->
  ?max_steps:int ->
  ?method_:method_ ->
  Graph.t ->
  result
(** Like {!analyse} but cached. The ambient {!Exec.Budget} is polled
    once on entry (as a cold analysis would at step 0), so a warm
    cache cannot make a budgeted task uninterruptible; on a miss the
    underlying analysis polls as usual and an expiry caches
    nothing. The {e resolved} method joins the key — [`Auto]/[`Mcm]
    resolve via the cheap {!Hsdf.supported} precheck before lookup, so
    the two methods never share entries and resolution costs no
    expansion on a hit; state-space keys are unchanged from earlier
    releases. *)

val memo_stats : unit -> Memo.stats
(** Hit/miss/eviction counters of the shared cache, for
    {!Obs.Metrics} export and the profile report. *)

val memo_clear : unit -> unit
(** Drop all cached results (counters are kept). Used by benchmarks to
    measure cold-cache behaviour. *)

type mcm_stats = { runs : int; fallbacks : int }

val mcm_stats : unit -> mcm_stats
(** Process-wide counters of the symbolic path: [runs] symbolic analyses
    actually performed (cache misses resolved to [`Mcm]), [fallbacks]
    requests for [`Mcm]/[`Auto] that ran the state space instead (expansion
    precheck rejection, certificate failure, or exact-arithmetic overflow).
    Exported as [sdf.mcm.*] in {!Obs.Metrics}. *)

val to_rational_opt : result -> Rational.t option
(** Total projection: the throughput value, {!Rational.zero} for deadlock,
    [None] when the analysis did not produce a verdict ([No_recurrence],
    [Budget_exhausted]). Prefer this over {!to_rational} wherever a missing
    verdict is an expected outcome rather than a caller bug. *)

val to_rational : result -> Rational.t
(** Throughput value; {!Rational.zero} for deadlock.
    @raise Invalid_argument on [No_recurrence] and [Budget_exhausted]. *)

val actor_throughput : Graph.t -> result -> Graph.actor_id -> Rational.t
(** Firings of the given actor per clock cycle: iteration throughput scaled
    by the actor's repetition count. *)

val pp_result : Format.formatter -> result -> unit
