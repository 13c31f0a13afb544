(* The traced run's replays: [Mapping.Flow_map.run],
   [Core.Design_flow.run_auto] and [Conformance.Engine.check_workload]
   re-enacted through the layers' public functions, each call wrapped in a
   [Span]. The replay must do the same work as the op it stands for;
   [guard] checks that against a cold run of the library itself. *)

module Flow_map = Mapping.Flow_map
module Comm_map = Mapping.Comm_map
module Binding = Mapping.Binding
module Order = Mapping.Order
module Memory_dim = Mapping.Memory_dim
module Application = Appmodel.Application
module Platform = Arch.Platform
module Noc = Arch.Noc
module Graph = Sdf.Graph
module Execution = Sdf.Execution
module Throughput = Sdf.Throughput
module Rational = Sdf.Rational

let ( let* ) = Result.bind

(* Copies of [Flow_map]'s private buffer-growth helpers: scale the token
   buffers, never the hardware FIFOs. [guard] fails the run when these
   drift from the library's. *)
let scale_params scale (c : Graph.channel) (p : Comm_map.channel_params) =
  if scale = 1 then p
  else
    {
      p with
      Comm_map.src_buffer_tokens = p.Comm_map.src_buffer_tokens * scale;
      dst_buffer_tokens = (2 * c.consumption_rate * scale) + c.initial_tokens;
    }

let intra_capacity scale (c : Graph.channel) =
  2 * scale * Sdf.Buffers.lower_bound c

(* [Throughput.analyse]'s dispatch, split so that the HSDF expansion and
   Howard's iteration are timed apart. The MCM result mirrors the
   library's: the throughput is the critical cycle's tokens over its
   time. *)
let analyse ~options ~max_steps ~method_ g =
  let state_space () =
    Span.time "sdf.throughput.state_space_s" (fun () ->
        Throughput.analyse ~options ~max_steps ~method_:`State_space g)
  in
  let fallback () =
    Span.count "sdf.mcm.fallbacks" 1;
    state_space ()
  in
  match method_ with
  | `State_space -> state_space ()
  | `Mcm | `Auto -> (
      match Sdf.Hsdf.supported ~options g with
      | Error _ -> fallback ()
      | Ok () -> (
          match
            Span.time "sdf.hsdf.expand_s" (fun () ->
                Sdf.Hsdf.expand ~options g)
          with
          | Error _ -> fallback ()
          | Ok h -> (
              Span.count "sdf.hsdf.instances" (Graph.actor_count h.Sdf.Hsdf.graph);
              Span.count "sdf.hsdf.edges" (Graph.channel_count h.Sdf.Hsdf.graph);
              match
                Span.time "sdf.mcm_s" (fun () ->
                    Sdf.Mcm.max_cycle_ratio h.Sdf.Hsdf.graph)
              with
              | exception (Sdf.Mcm.Diverged | Rational.Overflow) -> fallback ()
              | Sdf.Mcm.Deadlock _ ->
                  Span.count "sdf.mcm.runs" 1;
                  Throughput.Deadlocked { time = 0; iterations = 0 }
              | Sdf.Mcm.Acyclic ->
                  Span.count "sdf.mcm.runs" 1;
                  Throughput.No_recurrence
              | Sdf.Mcm.Ratio { lambda; critical } ->
                  Span.count "sdf.mcm.runs" 1;
                  if Rational.sign lambda <= 0 then Throughput.No_recurrence
                  else
                    Throughput.Throughput
                      {
                        throughput =
                          Rational.make critical.Sdf.Mcm.cycle_tokens
                            critical.Sdf.Mcm.cycle_time;
                        transient_time = 0;
                        period_time = critical.Sdf.Mcm.cycle_time;
                        period_iterations = critical.Sdf.Mcm.cycle_tokens;
                      })))

let allocate_noc platform g binding ~wires ~forbidden =
  match Platform.noc_mesh platform with
  | None -> Ok None
  | Some mesh ->
      let pairs =
        Graph.channels g
        |> List.filter_map (fun (c : Graph.channel) ->
               let src = binding (Graph.actor g c.source).Graph.actor_name in
               let dst = binding (Graph.actor g c.target).Graph.actor_name in
               if src = dst then None else Some (src, dst))
        |> List.sort_uniq compare
      in
      let rec try_wires w =
        let requests =
          List.map
            (fun (src, dst) -> { Noc.req_src = src; req_dst = dst; req_wires = w })
            pairs
        in
        Span.count "arch.noc.attempts" 1;
        match
          Span.time "arch.noc.allocate_s" (fun () ->
              Noc.allocate_routed ~forbidden mesh requests)
        with
        | Ok alloc -> Ok (Some alloc)
        | Error (Noc.Partitioned _ as e) -> Error (Noc.alloc_error_to_string e)
        | Error e ->
            if w > 1 then try_wires (w / 2)
            else Error (Noc.alloc_error_to_string e)
      in
      if pairs = [] then
        Ok (Some { Noc.noc = mesh; connections = []; link_load = [] })
      else try_wires (Stdlib.max 1 wires)

let round_metric k what = Printf.sprintf "flow_map.round%d.%s" k what

(* [Flow_map.run], one span per layer call and three per buffer-search
   round. Returns the mapping and the number of rounds analysed. *)
let map app platform (options : Flow_map.options) =
  let* binding =
    Span.time "mapping.binding_s" (fun () ->
        Binding.bind app platform ~weights:options.weights
          ~fixed:options.fixed ~excluded:options.excluded_tiles
          ~forbidden_pairs:options.forbidden_pairs ())
  in
  let tile_of name = Binding.tile_of binding name in
  let* timed_graph =
    Span.time "mapping.binding_s" (fun () ->
        Application.graph_for app ~assignment:(fun actor ->
            Binding.required_processor (Platform.tile platform (tile_of actor))))
  in
  let* noc_allocation =
    allocate_noc platform timed_graph tile_of
      ~wires:options.wires_per_connection ~forbidden:options.forbidden_hops
  in
  let* actor_orders =
    Span.time "mapping.order.actor_orders_s" (fun () ->
        Order.actor_orders ~timed_graph ~binding:tile_of)
  in
  let target = Application.throughput_constraint app in
  let value = function
    | Throughput.Throughput { throughput; _ } -> Rational.to_float throughput
    | Throughput.Deadlocked _ | Throughput.No_recurrence
    | Throughput.Budget_exhausted _ ->
        -1.0
  in
  let good predicted =
    match (target, predicted) with
    | None, _ -> true
    | Some t, Throughput.Throughput { throughput; _ } ->
        Rational.compare throughput t >= 0
    | Some _, _ -> false
  in
  let round k scale =
    let* expansion =
      Span.time (round_metric k "comm_map_s") (fun () ->
          Comm_map.expand ~graph:timed_graph ~binding:tile_of ~platform
            ?noc:noc_allocation
            ~intra_tile_capacity:(intra_capacity scale)
            ~params_override:(scale_params scale) ())
    in
    let schedules =
      Span.time (round_metric k "micro_orders_s") (fun () ->
          Order.micro_orders ~expansion ~timed_graph ~actor_orders)
    in
    let exec_options =
      {
        Execution.default_options with
        auto_concurrency = None;
        resources = schedules;
        max_firings = 50_000_000;
      }
    in
    let predicted =
      Span.time (round_metric k "analysis_s") (fun () ->
          analyse ~options:exec_options ~max_steps:options.throughput_max_steps
            ~method_:options.analysis expansion.Comm_map.graph)
    in
    Ok (expansion, schedules, exec_options, predicted)
  in
  (* the library's buffer distribution search, round for round *)
  let rec search scale r best =
    let* ((_, _, _, predicted) as result) = round (r + 1) scale in
    let improved =
      match best with
      | None -> true
      | Some (_, (_, _, _, b)) -> value predicted > value b *. 1.01
    in
    let best =
      match best with
      | Some (_, (_, _, _, b)) when value predicted <= value b -> best
      | Some _ | None -> Some (scale, result)
    in
    let continue_search =
      r < options.buffer_growth_rounds
      && match target with Some _ -> not (good predicted) | None -> improved
    in
    if continue_search then search (scale * 2) (r + 1) best
    else Ok (Option.get best, r + 1)
  in
  let* (scale, (expansion, schedules, exec_options, predicted)), rounds =
    search 1 0 None
  in
  Span.count "flow_map.rounds" rounds;
  let buffers (c : Graph.channel) =
    let src = tile_of (Graph.actor timed_graph c.source).Graph.actor_name in
    let dst = tile_of (Graph.actor timed_graph c.target).Graph.actor_name in
    if src = dst then
      Memory_dim.Intra
        (Stdlib.max (Sdf.Buffers.lower_bound c) (intra_capacity scale c))
    else
      Memory_dim.Inter
        ( Stdlib.max c.production_rate (2 * c.production_rate * scale),
          (2 * c.consumption_rate * scale) + c.initial_tokens )
  in
  let memory =
    Span.time "mapping.memory_dim_s" (fun () ->
        Memory_dim.dimension app platform binding ~buffers)
  in
  if not memory.Memory_dim.fits then Error "mapping does not fit the tile memories"
  else
    Ok
      ( {
          Flow_map.application = app;
          platform;
          options;
          binding;
          timed_graph;
          expansion;
          actor_orders;
          schedules;
          exec_options;
          predicted;
          noc_allocation;
          memory;
          buffer_scale = scale;
          meets_constraint = Option.map (fun _ -> good predicted) target;
        },
        rounds )

let sim mapping ~iterations ?timing ?faults ?max_cycles () =
  let r =
    Span.time "sim.platform_sim_s" (fun () ->
        Sim.Platform_sim.run mapping ~iterations ?timing ?faults ?max_cycles ())
  in
  (match r with
  | Ok res -> Span.count "sim.cycles" res.Sim.Platform_sim.total_cycles
  | Error _ -> ());
  r

type flow = { mapping : Flow_map.t; rounds : int }

(* [Design_flow.run_auto]: template, admission, mapping, MAMPS generation
   and the synthesis stand-in (netlist checks plus a one-iteration dry run
   of the platform). *)
let flow app ?tiles options choice =
  let* platform =
    Span.time "arch.template_s" (fun () ->
        Arch.Template.for_application app ?max_tiles:tiles choice)
  in
  let* _ =
    Span.time "sdf.admit_s" (fun () ->
        Sdf.Analysis.admit (Application.graph app))
    |> Result.map_error (Format.asprintf "%a" Sdf.Analysis.pp_admission_error)
  in
  let* mapping, rounds = map app platform options in
  let project =
    Span.time "mamps.project_s" (fun () -> Mamps.Project.generate mapping)
  in
  Span.count "mamps.project_bytes" (Mamps.Project.total_bytes project);
  let* () =
    Span.time "mamps.netlist_s" (fun () ->
        Mamps.Netlist.validate (Mamps.Netlist.of_mapping mapping))
  in
  let* _ =
    sim mapping ~iterations:1 () |> Result.map_error Sim.Platform_sim.error_to_string
  in
  Ok { mapping; rounds }

(* What a cold run of the library did: its mapping and how many analyses
   its buffer search missed in the cache (one per round). *)
type reference = { ref_mapping : Flow_map.t; ref_misses : int; ref_seconds : float }

let cold_run_auto app ?tiles options choice =
  Throughput.memo_clear ();
  let before = Throughput.memo_stats () in
  let t0 = Unix.gettimeofday () in
  let r = Core.Design_flow.run_auto app ?tiles ~options choice () in
  let seconds = Unix.gettimeofday () -. t0 in
  let misses = (Throughput.memo_stats ()).Sdf.Memo.misses - before.Sdf.Memo.misses in
  match r with
  | Error e -> Error (Core.Flow_error.to_string e)
  | Ok f ->
      Ok { ref_mapping = f.Core.Design_flow.mapping; ref_misses = misses; ref_seconds = seconds }

(* The replay stands for the library only if it analysed as many rounds
   as a cold run missed in the cache, and chose the same platform-aware
   graph. *)
let guard (replayed : flow) (reference : reference) =
  let key (m : Flow_map.t) = Graph.structural_key m.Flow_map.expansion.Comm_map.graph in
  if replayed.rounds <> reference.ref_misses then
    Error
      (Printf.sprintf "replay analysed %d rounds, a cold Flow_map.run %d"
         replayed.rounds reference.ref_misses)
  else if key replayed.mapping <> key reference.ref_mapping then
    Error "replay's chosen expansion differs from Flow_map.run's"
  else Ok ()

(* [Conformance.Engine.check_workload] without its comparisons: the
   generator, the flow, the platform runs, the analysis-agreement MCM run,
   the functional engine, the rotating recovery scenario and, every
   [dse_every] seeds, the DSE oracle. The engine's state-space side of the
   agreement oracle hits the cache its flow filled, so it is not
   replayed. Shrinking and reproducer writing only happen on a failure
   and are not replayed either. *)
let conformance (options : Conformance.Engine.options) seed =
  let w =
    Span.time "gen.workload_s" (fun () ->
        Gen.Workload.generate ~config:options.gen_config ~seed ())
  in
  let choice = Conformance.Engine.interconnect_for_seed seed in
  let flow_options =
    { Flow_map.default_options with memo = options.memo; analysis = options.analysis }
  in
  let* f = flow w.Gen.Workload.application flow_options choice in
  let n = options.iterations and max_cycles = options.max_cycles in
  let m = f.mapping in
  let _ = sim m ~iterations:n ~timing:Sim.Platform_sim.Wcet ~max_cycles () in
  let _ =
    Span.time "conformance.agreement_s" (fun () ->
        analyse ~options:m.Flow_map.exec_options
          ~max_steps:m.Flow_map.options.throughput_max_steps ~method_:`Mcm
          m.Flow_map.expansion.Comm_map.graph)
  in
  let _ = sim m ~iterations:n ~max_cycles () in
  let _ =
    sim m ~iterations:n ~max_cycles
      ~faults:(Sim.Fault.with_seed (w.Gen.Workload.seed + 1) Sim.Fault.none)
      ()
  in
  let _ =
    Span.time "appmodel.functional_s" (fun () ->
        Appmodel.Functional.run w.Gen.Workload.application ~iterations:n ())
  in
  Span.time "recover_s" (fun () ->
      match Recover.scenarios m with
      | [] -> ()
      | scenarios -> (
          let scenario = List.nth scenarios (seed mod List.length scenarios) in
          match Recover.evaluate_scenario m scenario ~iterations:n ~max_cycles () with
          | Recover.Repaired (_, repaired) ->
              ignore (sim repaired ~iterations:n ~max_cycles ())
          | Recover.Tolerated _ | Recover.Unrepairable _ | Recover.Undiagnosed _ -> ()));
  if options.dse_every > 0 && seed mod options.dse_every = 0 then
    Span.time "core.dse_oracle_s" (fun () ->
        ignore
          (Core.Dse.explore w.Gen.Workload.application ~options:flow_options
             ~tile_counts:[ 1; 2 ] ~interconnects:[ choice ] ()));
  Ok (w, f, choice, flow_options)
