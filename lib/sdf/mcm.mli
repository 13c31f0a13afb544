(** Maximum cycle ratio of an HSDF token-dependency graph.

    For an HSDF graph (every rate 1, see {!Hsdf}) executing self-timed, the
    asymptotic iteration period equals the {e maximum cycle ratio}

    {v λ* = max over cycles C of (Σ execution times on C) / (Σ initial tokens on C) v}

    and the worst-case throughput is [1/λ*] iterations per cycle — the
    (max,+) spectral radius of the graph. A cycle without initial tokens can
    never fire and means deadlock; a graph without cycles has no recurrent
    constraint at all.

    The ratio is computed per strongly connected component with Howard's
    policy iteration (Cochet-Terrasson et al., 1998) in exact {!Rational}
    arithmetic. Value determination walks every member along the policy
    after a start or a phase-1 (ratio) switch. After a phase-2 (potential)
    switch of a set S of nodes under a single policy cycle it is
    incremental: only the nodes A whose policy path now runs through S are
    re-settled, top-down from the members of S whose successor lies
    outside A, and the next improvement scans only the in-neighbours of A.
    It falls back to the full walk and the full scan when a node of S lies
    on the policy cycle, when the lowest-id member is in A (its walk fixes
    the cycle's head, where the potential is 0), when a node of A never
    leaves A (S closed a new cycle), or under several policy cycles. Each
    incremental potential is the integer the full walk would compute, so
    the policy sequence, λ and the witness are the full walk's. The
    budget of the ambient {!Exec.Budget} scope is polled once per
    improvement step. Every accepted fixpoint is checked against the
    (max,+) optimality certificate (a node potential [x] with
    [x(u) ≥ t(u) − λ·w(e) + x(v)] for every edge [u→v] in the component),
    which proves [λ] is an upper bound on every cycle ratio; since [λ] is
    also realised by a concrete cycle, the returned value is exactly λ* —
    the certificate turns any convergence subtlety into a loud failure
    instead of a silently wrong bound. *)

type cycle = {
  cycle_actors : Graph.actor_id list;
      (** the witness cycle, in edge order (closing edge back to the head) *)
  cycle_time : int;  (** Σ execution times of the actors on the cycle *)
  cycle_tokens : int;  (** Σ initial tokens on the cycle's edges *)
}

type outcome =
  | Ratio of { lambda : Rational.t; critical : cycle }
      (** [lambda = cycle_time / cycle_tokens] of the critical cycle, the
          maximum over all cycles; [Rational.zero] when every cycle is
          token-guarded but zero-time *)
  | Deadlock of cycle  (** a cycle without initial tokens: nothing fires *)
  | Acyclic  (** no cycle at all: no recurrent throughput constraint *)

exception Diverged
(** Policy iteration exceeded its iteration budget or a fixpoint failed the
    optimality certificate. Neither has ever a right to happen; callers
    treat it like {!Rational.Overflow} and fall back to the state-space
    analysis rather than report an unproven bound. *)

type csr = {
  time : int array;  (** execution time of each node, indexed by node id *)
  row : int array;
      (** [n + 1] offsets: node [u]'s out-edges are the positions
          [row.(u) .. row.(u + 1) - 1] of {!field-succ} and {!field-tokens} *)
  succ : int array;  (** destination node of each edge *)
  tokens : int array;  (** initial tokens on each edge *)
}
(** A dependency graph in compressed-sparse-row form, with parallel edges
    already collapsed to the fewest tokens. Each row lists its successors
    {b latest-discovered first}: of two edges out of one node, the one whose
    (source, destination) pair first appeared later in the input comes
    first. The analysis walks rows in this order, so the order picks the
    witness cycle (and with it the period fields {!Throughput} reports)
    whenever several cycles share the maximum ratio. *)

val csr_of_edges :
  time:int array ->
  src:int array ->
  dst:int array ->
  tokens:int array ->
  int ->
  csr
(** [csr_of_edges ~time ~src ~dst ~tokens m] collapses the first [m] raw
    edges [src.(e) -> dst.(e)], given in discovery order, into a {!csr}
    over the nodes [0 .. Array.length time - 1]. The collapse is a stable
    counting sort by source plus a per-destination stamp; no pair is
    hashed. [tokens] is overwritten: on return the first edge of each pair
    holds the pair's fewest tokens, and every later parallel edge holds
    [-1]. *)

val max_cycle_ratio_csr : csr -> outcome
(** Exact maximum cycle ratio of a {!csr} dependency graph. The zero-token
    cycle search, Tarjan's components and Howard's iteration are loops over
    arrays preallocated per call.
    @raise Diverged see above
    @raise Exec.Budget.Expired when the ambient budget runs out *)

val max_cycle_ratio : Graph.t -> outcome
(** {!max_cycle_ratio_csr} of the graph's channels, taken in id order as
    {!csr_of_edges} edges: each edge's time weight is its source's
    execution time and its token weight its initial tokens;
    production/consumption rates are ignored (the input is expected to be
    homogeneous — expand first, see {!Hsdf.expand}).
    @raise Diverged see above *)
