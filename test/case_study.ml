(* The paper's case study as the flow maps it: the calibrated MJPEG
   application on the five-tile FSL or NoC platform, and the graph of each
   buffer-search round re-expanded at any buffer scale, exactly as
   [Flow_map] expands a round. *)

let fsl = Arch.Template.Use_fsl Arch.Fsl.default
let noc = Arch.Template.Use_noc Arch.Noc.default_config

let app =
  lazy
    (match Experiments.calibrated_mjpeg (Mjpeg.Streams.synthetic ()) with
    | Ok app -> app
    | Error e -> Alcotest.fail e)

(* the flow's mapping with the symbolic analysis *)
let mapping template =
  match
    Core.Design_flow.run_auto (Lazy.force app)
      ~options:(Experiments.flow_options_with ~analysis:`Mcm ())
      template ()
  with
  | Ok flow -> flow.Core.Design_flow.mapping
  | Error e -> Alcotest.fail (Core.Flow_error.to_string e)

(* [Flow_map]'s private buffer growth, copied; "case study mcm pinned"
   checks the flow's own final round against it, so the two cannot drift
   apart silently *)
let scale_params scale (c : Sdf.Graph.channel)
    (p : Mapping.Comm_map.channel_params) =
  if scale = 1 then p
  else
    {
      p with
      Mapping.Comm_map.src_buffer_tokens =
        p.Mapping.Comm_map.src_buffer_tokens * scale;
      dst_buffer_tokens = (2 * c.consumption_rate * scale) + c.initial_tokens;
    }

(* the graph and execution options of the round at buffer [scale] *)
let round (m : Mapping.Flow_map.t) scale =
  let expansion =
    match
      Mapping.Comm_map.expand ~graph:m.Mapping.Flow_map.timed_graph
        ~binding:(Mapping.Binding.tile_of m.Mapping.Flow_map.binding)
        ~platform:m.Mapping.Flow_map.platform
        ?noc:m.Mapping.Flow_map.noc_allocation
        ~intra_tile_capacity:(fun c -> 2 * scale * Sdf.Buffers.lower_bound c)
        ~params_override:(scale_params scale) ()
    with
    | Ok x -> x
    | Error e -> Alcotest.fail e
  in
  let options =
    {
      Sdf.Execution.default_options with
      auto_concurrency = None;
      resources =
        Mapping.Order.micro_orders ~expansion
          ~timed_graph:m.Mapping.Flow_map.timed_graph
          ~actor_orders:m.Mapping.Flow_map.actor_orders;
      max_firings = 50_000_000;
    }
  in
  (expansion.Mapping.Comm_map.graph, options)
