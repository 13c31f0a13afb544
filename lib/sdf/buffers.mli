(** Buffer-capacity modelling and sizing.

    A bounded channel is modelled structurally: a channel of capacity [k]
    gains a reverse channel carrying "space" tokens, initialised to
    [k - initial_tokens]. The producer consumes space when it fires and the
    consumer returns it, so the bounded graph is again a pure SDF graph and
    all analyses apply unchanged (Stuijk, 2007).

    Buffer sizing searches for per-channel capacities under which the graph
    still meets a throughput target. The search starts from the structural
    lower bound per channel and greedily grows the channel whose space
    tokens block the most firings, as observed by the instrumented
    execution engine. *)

val lower_bound : Graph.channel -> int
(** Smallest capacity that can possibly avoid deadlock on a channel with
    production rate [p], consumption rate [c] and [d] initial tokens:
    [p + c - gcd(p,c) + d mod gcd(p,c)], and at least [d]. *)

val add_capacity : Graph.t -> Graph.channel_id -> capacity:int -> Graph.t
(** Add the reverse space channel for one channel. The reverse channel is
    named ["<channel>__space"].
    @raise Invalid_argument if [capacity] is below the channel's initial
    token count. *)

val with_capacities : Graph.t -> (Graph.channel -> int option) -> Graph.t
(** Bound every channel for which the function returns a capacity. Channels
    named ["...__space"] are never bounded again. *)

type sizing = {
  capacities : int array;  (** per original channel id *)
  achieved : Throughput.result;
  evaluations : int;  (** throughput analyses performed by the search *)
}

val size_for_throughput :
  ?options:Execution.options ->
  ?max_rounds:int ->
  ?analysis:Throughput.method_ ->
  ?bounded:(Graph.channel -> bool) ->
  Graph.t ->
  target:Rational.t ->
  sizing option
(** Find capacities (for the channels selected by [bounded], default: all
    non-self-loop channels) achieving at least [target] iterations/cycle.
    Each round's analysis goes through {!Throughput.analyse_memo}:
    neighbouring searches revisit the same bounded graphs.
    [analysis] picks the throughput method per round (default [`Auto]:
    the search re-analyses many near-identical graphs, exactly where the
    symbolic method pays; [`State_space] is the escape hatch and yields
    the same capacities, since both methods return the same bound).
    Returns [None] when [max_rounds] (default 64) increments were not
    enough — including when the unbounded graph itself cannot reach the
    target. *)

(** One point of the storage/throughput trade-off. *)
type trade_off_point = {
  total_tokens : int;  (** sum of the bounded channels' capacities *)
  point_capacities : int array;  (** per original channel id *)
  point_throughput : Rational.t;
}

val trade_off :
  ?options:Execution.options ->
  ?max_rounds:int ->
  ?analysis:Throughput.method_ ->
  ?bounded:(Graph.channel -> bool) ->
  Graph.t ->
  trade_off_point list
(** The buffer-size/throughput Pareto curve (Stuijk, 2007 — the analysis
    behind SDF3's "calculates buffer distributions"): starting from the
    structural lower bounds, repeatedly grow the channel whose space
    tokens block the most firings and record every strict throughput
    improvement. [analysis] as in {!size_for_throughput} (default
    [`Auto]). Monotone in [total_tokens] and [point_throughput]; ends
    when growth stops paying off or [max_rounds] (default 64) is hit. *)
