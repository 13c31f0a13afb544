type t =
  | Flow_completes
  | Bound_holds
  | No_deadlock
  | Fault_transparency
  | Functional_agreement
  | Pareto_consistency
  | Recovery
  | Seed_timeout
  | Analysis_agreement

let all =
  [
    Flow_completes;
    Bound_holds;
    No_deadlock;
    Fault_transparency;
    Functional_agreement;
    Pareto_consistency;
    Recovery;
    Seed_timeout;
    Analysis_agreement;
  ]

let name = function
  | Flow_completes -> "flow-completes"
  | Bound_holds -> "bound-holds"
  | No_deadlock -> "no-deadlock"
  | Fault_transparency -> "fault-transparency"
  | Functional_agreement -> "functional-agreement"
  | Pareto_consistency -> "pareto-consistency"
  | Recovery -> "recovery"
  | Seed_timeout -> "seed-timeout"
  | Analysis_agreement -> "analysis-agreement"

let of_name s = List.find_opt (fun o -> name o = s) all

let describe = function
  | Flow_completes ->
      "the automated flow maps every admissible generated workload"
  | Bound_holds ->
      "the worst-case throughput guarantee is a lower bound on the \
       WCET-timed platform simulation"
  | No_deadlock -> "a buffer-sized mapping never deadlocks in the simulator"
  | Fault_transparency ->
      "a Fault.none injection is bit-identical to an uninjected run"
  | Functional_agreement ->
      "untimed functional execution and the timed simulator agree on \
       iteration and firing counts"
  | Pareto_consistency -> "DSE Pareto points are mutually non-dominated"
  | Recovery ->
      "every single permanent fault is tolerated, repaired with the \
       degraded bound met and unchanged function, or typed-unrepairable"
  | Seed_timeout ->
      "every seed's full oracle evaluation completes within its wall-clock \
       budget"
  | Analysis_agreement ->
      "symbolic (max,+)/MCM throughput analysis returns exactly the \
       state-space result on the mapped graph, and the symbolic \
       first-iteration latency exactly the engine's"

let pp ppf o = Format.pp_print_string ppf (name o)

type violation = { oracle : t; detail : string }

let pp_violation ppf v = Format.fprintf ppf "[%a] %s" pp v.oracle v.detail
