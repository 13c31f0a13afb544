(** Job specifications and their execution.

    A job is one request against the automated flow: an SDF graph plus
    the platform and budget options, identified by a digest of the
    graph's structural key and the option set. The identity is what makes
    submission idempotent — a client retrying a POST after a crash or a
    [429] lands on the same job id, and a completed job is answered from
    the stored outcome instead of re-executing (and its analyses, when
    they do re-run, hit {!Sdf.Memo} because the structural key is
    unchanged). *)

type mode =
  | Flow  (** one full flow run ({!Core.Design_flow.run_auto}) + measure *)
  | Dse  (** a budgeted sweep ({!Core.Dse.explore_anytime}) *)

type spec = {
  sp_graph_xml : string;  (** the SDF graph, flow XML format *)
  sp_mode : mode;
  sp_interconnect : [ `Fsl | `Noc ];
  sp_tiles : int option;
      (** [Flow]: tile-count cap; [Dse]: sweep tile counts [1..n] *)
  sp_analysis : Sdf.Throughput.method_;
  sp_timeout : float option;  (** wall-clock budget, seconds *)
  sp_iterations : int;  (** iterations measured on the platform, [Flow] *)
}

val parse :
  body:string ->
  query:(string * string) list ->
  default_timeout:float option ->
  (spec, string) result
(** Build a spec from a request: the body is the graph XML (validated
    here, so submission rejects bad graphs synchronously), the query
    parameters are [mode=flow|dse], [interconnect=fsl|noc], [tiles],
    [analysis=auto|mcm|state-space], [timeout] (seconds, capped at
    3600), [iterations]. Defaults: flow, fsl, auto analysis,
    [default_timeout], 3 iterations. *)

val options_key : spec -> string
(** Canonical encoding of everything but the graph. *)

val id : spec -> string
(** Job identity: hex digest over the graph's structural digest, its
    channel token sizes in channel-id order, and {!options_key}. *)

val to_json : spec -> Jsonkit.Json.t
(** Everything needed to re-execute the job, graph included — this is
    what the journal stores. *)

val of_json : Jsonkit.Json.t -> (spec, string) result

type outcome =
  | Completed of Jsonkit.Json.t  (** the result document *)
  | Failed of string  (** typed flow error or invalid input *)
  | Timed_out of Jsonkit.Json.t option
      (** budget expired; [Some] carries the partial (degraded) result
          when the anytime sweep produced one *)

val outcome_status : outcome -> string
(** ["completed"] / ["failed"] / ["timed_out"]. *)

val execute : spec -> outcome
(** Run the job on the calling domain under its budget
    ({!Exec.Pool.run_budgeted} for [Flow], an anytime deadline for
    [Dse]). Never raises: every failure mode comes back typed. *)
