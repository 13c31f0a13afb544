(** The conformance properties checked on every generated workload.

    Each oracle is a differential claim relating two independent layers of
    the reproduction — the SDF3-style analysis, the untimed functional
    engine, and the cycle-level platform simulator — so a violation always
    means at least one layer is wrong, never merely that a workload is
    unusual. *)

type t =
  | Flow_completes
      (** the full flow (buffer sizing, binding, static order, platform
          generation) accepts every generated workload *)
  | Bound_holds
      (** the analysed worst-case throughput is a true lower bound on the
          WCET-timed platform simulation *)
  | No_deadlock
      (** a buffer-sized mapping never deadlocks in the simulator *)
  | Fault_transparency
      (** a {!Sim.Fault.none} injection is bit-identical to no injection *)
  | Functional_agreement
      (** untimed functional execution and the timed simulator agree on
          iteration and firing counts *)
  | Pareto_consistency
      (** DSE Pareto points are mutually non-dominated *)
  | Recovery
      (** every single permanent fault is tolerated, repaired with the
          degraded bound met and unchanged function, or typed-unrepairable
          — never an undiagnosed failure *)
  | Seed_timeout
      (** a seed's full oracle evaluation finished within the per-seed
          wall-clock budget ({!Engine.options.seed_timeout}); the
          violation means the workload hung or crawled, and the seed is
          reported with a reproducer instead of hanging the suite *)
  | Analysis_agreement
      (** the symbolic (max,+)/MCM analysis ({!Sdf.Mcm} over the
          {!Sdf.Hsdf} expansion) returns {e exactly} the state-space
          throughput on the mapped graph — same rational on a throughput
          verdict, deadlock iff deadlock; state-space non-verdicts
          ([No_recurrence]/[Budget_exhausted]) make no claim — and
          {!Mapping.Flow_map.first_iteration_latency} equals the
          [end_time] of a one-iteration {!Sdf.Execution.run} on the same
          expansion and options, [None] exactly when that run does not
          finish *)

val all : t list
val name : t -> string
(** Stable kebab-case identifier, used in reproducer directory names. *)

val of_name : string -> t option
val describe : t -> string
val pp : Format.formatter -> t -> unit

type violation = { oracle : t; detail : string }

val pp_violation : Format.formatter -> violation -> unit
