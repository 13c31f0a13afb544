(** SDF → HSDF expansion.

    A consistent SDF graph unfolds into a {e homogeneous} SDF graph (every
    rate 1) with one actor per firing of one graph iteration: actor [a] with
    repetition count [q(a)] becomes instances [a#0 … a#(q(a)-1)], where
    instance [a#i] stands for the firings [k·q(a)+i] of [a] over all
    iterations [k]. Channels become token-dependency edges between
    instances: consumer instance [t#i] consuming token [i·r+l] depends on
    the producer instance that emits it, with the iteration distance encoded
    as initial tokens on the HSDF edge (Sriram & Bhattacharyya's classical
    construction, exact integer token-index bookkeeping).

    The expansion also folds in the execution restrictions the platform —
    and hence {!Execution} — imposes, so that a purely structural analysis
    of the result (see {!Mcm}) models the mapped design exactly:

    - an {b auto-concurrency} bound of [k] becomes a [k]-token self-loop on
      every instance chain of an unbound actor;
    - a {b resource static order} becomes a chain of zero-token edges
      through the order's occurrences plus a one-token edge closing the
      ring, which is precisely the engine's one-firing-in-flight cyclic
      scheduler.

    Mapped graphs from {!Mapping} arrive here with the paper's Figure-4
    communication actors already expanded into the graph, so the symbolic
    bound covers the platform model, not just the abstract application. *)

type instance = {
  original : Graph.actor_id;  (** actor of the source graph *)
  index : int;  (** firing index within one iteration, [0 ≤ index < q] *)
}

type t = {
  graph : Graph.t;  (** the HSDF graph; every rate is 1 *)
  instances : instance array;  (** provenance, indexed by HSDF actor id *)
  first_instance : int array;
      (** HSDF id of instance 0 of each original actor; instance [i] of
          actor [a] is HSDF actor [first_instance.(a) + i] *)
  repetition : int array;  (** repetition vector of the source graph *)
}

type error =
  | Inconsistent of string  (** no repetition vector exists *)
  | Too_large of { instances : int; edges : int; limit : int }
      (** the expansion would exceed the instance ([limit]) or edge
          ([8·limit]) budget; symbolic analysis would not pay here *)
  | Unsupported of string
      (** the options carry semantics the structural encoding cannot
          express (firing-time/trace closures, static orders that are not
          one-iteration cyclic schedules) *)

val default_max_instances : int
(** Default expansion budget, [100_000] firings per iteration. *)

val supported :
  ?options:Execution.options -> ?max_instances:int -> Graph.t ->
  (unit, error) result
(** Cheap feasibility check — repetition vector, size budget and option
    validation only, no expansion is built. [Ok ()] guarantees that
    {!expand} with the same arguments succeeds; used by
    {!Throughput.analyse_memo} to resolve [`Auto] without paying for the
    expansion on cache hits. *)

val expand :
  ?options:Execution.options -> ?max_instances:int -> Graph.t ->
  (t, error) result
(** Build the expansion. Instances are named ["<actor>#<index>"]; the
    synthesized auto-concurrency and static-order channels are named with
    {!Transform.uniquify} against the expanded graph, so the result always
    validates. Parallel dependencies between the same two instances are
    collapsed to the tightest (fewest initial tokens) edge. *)

val expand_csr :
  ?options:Execution.options -> ?max_instances:int -> Graph.t ->
  (Mcm.csr, error) result
(** The same expansion as {!expand}, straight into {!Mcm.csr} form: node
    ids are HSDF actor ids, rows list successors in {!Mcm.csr}'s order, and
    no names or {!Graph.t} are built. [Mcm.max_cycle_ratio_csr] of the
    result equals [Mcm.max_cycle_ratio] of {!expand}'s graph, witness cycle
    included. *)

val instance_label : t -> Graph.actor_id -> string
(** ["<original actor name>#<index>"] for an HSDF actor id, from the
    provenance table. *)

val pp_error : Format.formatter -> error -> unit
