module Json = Jsonkit.Json

type mode =
  | Flow
  | Dse

type spec = {
  sp_graph_xml : string;
  sp_mode : mode;
  sp_interconnect : [ `Fsl | `Noc ];
  sp_tiles : int option;
  sp_analysis : Sdf.Throughput.method_;
  sp_timeout : float option;
  sp_iterations : int;
}

(* --- parsing -------------------------------------------------------------- *)

let mode_name = function Flow -> "flow" | Dse -> "dse"
let interconnect_name = function `Fsl -> "fsl" | `Noc -> "noc"

let analysis_name = function
  | `State_space -> "state-space"
  | `Mcm -> "mcm"
  | `Auto -> "auto"

let analysis_of_name = function
  | "state-space" -> Some `State_space
  | "mcm" -> Some `Mcm
  | "auto" -> Some `Auto
  | _ -> None

let max_timeout = 3600.0
let max_tiles = 64
let max_iterations = 1000

let parse ~body ~query ~default_timeout =
  let ( let* ) = Result.bind in
  let param name = List.assoc_opt name query in
  let* () =
    if String.equal (String.trim body) "" then Error "empty body: expected SDF graph XML"
    else Ok ()
  in
  let* _graph =
    Result.map_error (Printf.sprintf "invalid graph: %s") (Sdf.Xmlio.of_string body)
  in
  let* mode =
    match param "mode" with
    | None | Some "flow" -> Ok Flow
    | Some "dse" -> Ok Dse
    | Some m -> Error (Printf.sprintf "unknown mode %S (flow|dse)" m)
  in
  let* interconnect =
    match param "interconnect" with
    | None | Some "fsl" -> Ok `Fsl
    | Some "noc" -> Ok `Noc
    | Some i -> Error (Printf.sprintf "unknown interconnect %S (fsl|noc)" i)
  in
  let* tiles =
    match param "tiles" with
    | None -> Ok None
    | Some v -> (
        match int_of_string_opt v with
        | Some n when n >= 1 && n <= max_tiles -> Ok (Some n)
        | _ -> Error (Printf.sprintf "tiles must be 1..%d, got %S" max_tiles v))
  in
  let* analysis =
    match param "analysis" with
    | None -> Ok `Auto
    | Some v -> (
        match analysis_of_name v with
        | Some a -> Ok a
        | None ->
            Error (Printf.sprintf "unknown analysis %S (auto|mcm|state-space)" v))
  in
  let* timeout =
    match param "timeout" with
    | None -> Ok default_timeout
    | Some v -> (
        match float_of_string_opt v with
        | Some t when t > 0.0 -> Ok (Some (Float.min t max_timeout))
        | _ -> Error (Printf.sprintf "timeout must be positive seconds, got %S" v))
  in
  let* iterations =
    match param "iterations" with
    | None -> Ok 3
    | Some v -> (
        match int_of_string_opt v with
        | Some n when n >= 1 && n <= max_iterations -> Ok n
        | _ ->
            Error
              (Printf.sprintf "iterations must be 1..%d, got %S" max_iterations v))
  in
  Ok
    {
      sp_graph_xml = body;
      sp_mode = mode;
      sp_interconnect = interconnect;
      sp_tiles = tiles;
      sp_analysis = analysis;
      sp_timeout = timeout;
      sp_iterations = iterations;
    }

(* --- identity ------------------------------------------------------------- *)

let options_key spec =
  Printf.sprintf "mode=%s;ic=%s;tiles=%s;analysis=%s;timeout=%s;iter=%d"
    (mode_name spec.sp_mode)
    (interconnect_name spec.sp_interconnect)
    (match spec.sp_tiles with None -> "auto" | Some n -> string_of_int n)
    (analysis_name spec.sp_analysis)
    (match spec.sp_timeout with
    | None -> "none"
    | Some t -> Printf.sprintf "%.3f" t)
    spec.sp_iterations

let id spec =
  (* key on the graph's structural digest, not the raw XML: two
     serializations of the same graph are the same job. The structural key
     leaves token sizes out, but a job's memory dimensioning and
     communication model depend on them, so they join the graph part in
     channel-id order. *)
  let graph_part =
    match Sdf.Xmlio.of_string spec.sp_graph_xml with
    | Ok g ->
        String.concat ","
          (Sdf.Graph.structural_digest g
          :: List.map
               (fun (c : Sdf.Graph.channel) -> string_of_int c.token_size)
               (Sdf.Graph.channels g))
    | Error _ -> Digest.to_hex (Digest.string spec.sp_graph_xml)
  in
  Digest.to_hex (Digest.string (graph_part ^ "|" ^ options_key spec))

(* --- persistence ---------------------------------------------------------- *)

let to_json spec =
  Json.Obj
    [
      ("graph_xml", Json.String spec.sp_graph_xml);
      ("mode", Json.String (mode_name spec.sp_mode));
      ("interconnect", Json.String (interconnect_name spec.sp_interconnect));
      ( "tiles",
        match spec.sp_tiles with None -> Json.Null | Some n -> Json.Int n );
      ("analysis", Json.String (analysis_name spec.sp_analysis));
      ( "timeout",
        match spec.sp_timeout with
        | None -> Json.Null
        | Some t -> Json.Float t );
      ("iterations", Json.Int spec.sp_iterations);
    ]

let of_json j =
  let ( let* ) = Result.bind in
  let field name = Json.member name j in
  let* graph_xml =
    match Option.bind (field "graph_xml") Json.to_string_opt with
    | Some s -> Ok s
    | None -> Error "job spec: missing graph_xml"
  in
  let* mode =
    match Option.bind (field "mode") Json.to_string_opt with
    | Some "flow" | None -> Ok Flow
    | Some "dse" -> Ok Dse
    | Some m -> Error (Printf.sprintf "job spec: unknown mode %S" m)
  in
  let* interconnect =
    match Option.bind (field "interconnect") Json.to_string_opt with
    | Some "fsl" | None -> Ok `Fsl
    | Some "noc" -> Ok `Noc
    | Some i -> Error (Printf.sprintf "job spec: unknown interconnect %S" i)
  in
  let* analysis =
    match Option.bind (field "analysis") Json.to_string_opt with
    | None -> Ok `Auto
    | Some v -> (
        match analysis_of_name v with
        | Some a -> Ok a
        | None -> Error (Printf.sprintf "job spec: unknown analysis %S" v))
  in
  let tiles = Option.bind (field "tiles") Json.to_int_opt in
  let timeout = Option.bind (field "timeout") Json.to_float_opt in
  let iterations =
    Option.value ~default:3 (Option.bind (field "iterations") Json.to_int_opt)
  in
  Ok
    {
      sp_graph_xml = graph_xml;
      sp_mode = mode;
      sp_interconnect = interconnect;
      sp_tiles = tiles;
      sp_analysis = analysis;
      sp_timeout = timeout;
      sp_iterations = iterations;
    }

(* --- execution ------------------------------------------------------------ *)

type outcome =
  | Completed of Json.t
  | Failed of string
  | Timed_out of Json.t option

let outcome_status = function
  | Completed _ -> "completed"
  | Failed _ -> "failed"
  | Timed_out _ -> "timed_out"

(* wrap a bare SDF graph into an application model with no-op firing
   functions: the daemon serves throughput/area answers, not token
   values, so the WCETs are all the behaviour that matters *)
let application_of_graph g =
  let actors =
    List.map
      (fun (a : Sdf.Graph.actor) ->
        {
          Appmodel.Application.a_name = a.Sdf.Graph.actor_name;
          a_implementations =
            [
              Appmodel.Actor_impl.make
                ~name:(Printf.sprintf "noop_%s" a.Sdf.Graph.actor_name)
                ~metrics:
                  (Appmodel.Metrics.make ~wcet:a.Sdf.Graph.execution_time
                     ~instruction_memory:2048 ~data_memory:1024)
                ~cycles:
                  (Appmodel.Actor_impl.constant_cycles
                     a.Sdf.Graph.execution_time)
                (fun _ -> []);
            ];
        })
      (Sdf.Graph.actors g)
  in
  let channels =
    List.map
      (fun (c : Sdf.Graph.channel) ->
        Appmodel.Application.channel ~name:c.Sdf.Graph.channel_name
          ~source:(Sdf.Graph.actor g c.Sdf.Graph.source).Sdf.Graph.actor_name
          ~production:c.Sdf.Graph.production_rate
          ~target:(Sdf.Graph.actor g c.Sdf.Graph.target).Sdf.Graph.actor_name
          ~consumption:c.Sdf.Graph.consumption_rate
          ~initial_tokens:c.Sdf.Graph.initial_tokens
          ~token_bytes:(max 1 c.Sdf.Graph.token_size) ())
      (Sdf.Graph.channels g)
  in
  Appmodel.Application.make ~name:(Sdf.Graph.name g) ~actors ~channels ()

let interconnect_of = function
  | `Fsl -> Arch.Template.Use_fsl Arch.Fsl.default
  | `Noc -> Arch.Template.Use_noc Arch.Noc.default_config

let json_rational = function
  | None -> Json.Null
  | Some r ->
      Json.Obj
        [
          ("num", Json.Int (Sdf.Rational.numerator r));
          ("den", Json.Int (Sdf.Rational.denominator r));
        ]

let options_of spec =
  { Mapping.Flow_map.default_options with analysis = spec.sp_analysis }

(* the simulator polls Budget.check, so the wall-clock budget is the real
   bound; the cycle watchdog only backstops budget-less jobs *)
let measure_max_cycles = 100_000_000

let run_flow spec =
  match Sdf.Xmlio.of_string spec.sp_graph_xml with
  | Error e -> Failed (Printf.sprintf "invalid graph: %s" e)
  | Ok graph -> (
      match application_of_graph graph with
      | Error e -> Failed (Printf.sprintf "invalid application: %s" e)
      | Ok app -> (
          let task () =
            match
              Core.Design_flow.run_auto app ?tiles:spec.sp_tiles
                ~options:(options_of spec)
                (interconnect_of spec.sp_interconnect)
                ()
            with
            | Error e -> Failed (Core.Flow_error.to_string e)
            | Ok flow ->
                let measured, measure_error =
                  match
                    Core.Design_flow.measure flow
                      ~iterations:spec.sp_iterations
                      ~max_cycles:measure_max_cycles ()
                  with
                  | Ok r ->
                      ( Json.Obj
                          [
                            ("iterations", Json.Int r.Sim.Platform_sim.iterations);
                            ("cycles", Json.Int r.Sim.Platform_sim.total_cycles);
                          ],
                        Json.Null )
                  | Error e ->
                      (Json.Null, Json.String (Core.Flow_error.to_string e))
                in
                Completed
                  (Json.Obj
                     [
                       ("mode", Json.String "flow");
                       ("graph", Json.String (Sdf.Graph.name graph));
                       ( "interconnect",
                         Json.String (interconnect_name spec.sp_interconnect)
                       );
                       ( "tiles",
                         Json.Int (Arch.Platform.tile_count flow.platform) );
                       ("guarantee", json_rational flow.guarantee);
                       ( "buffer_scale",
                         Json.Int flow.mapping.Mapping.Flow_map.buffer_scale );
                       ( "meets_constraint",
                         match
                           flow.mapping.Mapping.Flow_map.meets_constraint
                         with
                         | None -> Json.Null
                         | Some b -> Json.Bool b );
                       ("measured", measured);
                       ("measure_error", measure_error);
                     ])
          in
          match
            Exec.Pool.run_budgeted ?timeout:spec.sp_timeout ~task_index:0 task
          with
          | Ok outcome -> outcome
          | Error (Exec.Pool.Timed_out _) -> Timed_out None
          | Error (Exec.Pool.Raised e | Exec.Pool.Gave_up e) ->
              Failed e.Exec.Pool.message
          | Error (Exec.Pool.Cancelled _) -> Failed "cancelled"))

let summary_json (s : Core.Dse.summary) =
  Json.Obj
    [
      ("interconnect", Json.String s.Core.Dse.s_interconnect);
      ("tiles", Json.Int s.Core.Dse.s_tile_count);
      ("guarantee", json_rational s.Core.Dse.s_guarantee);
      ("slices", Json.Int s.Core.Dse.s_slices);
    ]

let run_dse spec =
  match Sdf.Xmlio.of_string spec.sp_graph_xml with
  | Error e -> Failed (Printf.sprintf "invalid graph: %s" e)
  | Ok graph -> (
      match application_of_graph graph with
      | Error e -> Failed (Printf.sprintf "invalid application: %s" e)
      | Ok app -> (
          let deadline = Option.map Exec.Budget.after spec.sp_timeout in
          let tile_counts =
            Option.map (fun n -> List.init n (fun i -> i + 1)) spec.sp_tiles
          in
          match
            Core.Dse.explore_anytime app ?tile_counts
              ~interconnects:[ interconnect_of spec.sp_interconnect ]
              ~options:(options_of spec) ~jobs:1 ?deadline ()
          with
          | Error e -> Failed e
          | Ok a ->
              let doc degradation =
                Json.Obj
                  [
                    ("mode", Json.String "dse");
                    ("graph", Json.String (Sdf.Graph.name graph));
                    ( "points",
                      Json.List (List.map summary_json a.Core.Dse.a_summaries)
                    );
                    ( "pareto",
                      Json.List
                        (List.map summary_json
                           (Core.Dse.pareto_summaries a.Core.Dse.a_summaries))
                    );
                    ( "failures",
                      Json.Int (List.length a.Core.Dse.a_failures) );
                    ("degradation", degradation);
                  ]
              in
              (match a.Core.Dse.a_degradation with
              | None -> Completed (doc Json.Null)
              | Some d ->
                  Timed_out
                    (Some
                       (doc
                          (Json.Obj
                             [
                               ( "reason",
                                 Json.String
                                   (Exec.Budget.reason_to_string
                                      d.Core.Dse.d_reason) );
                               ("evaluated", Json.Int d.Core.Dse.d_evaluated);
                               ("skipped", Json.Int d.Core.Dse.d_skipped);
                             ]))))))

let execute spec =
  try match spec.sp_mode with Flow -> run_flow spec | Dse -> run_dse spec
  with e -> Failed (Printexc.to_string e)
