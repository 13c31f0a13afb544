module Application = Appmodel.Application
module Platform = Arch.Platform
module Noc = Arch.Noc
module Graph = Sdf.Graph
module Execution = Sdf.Execution
module Throughput = Sdf.Throughput
module Rational = Sdf.Rational

type options = {
  weights : Cost.weights;
  fixed : (string * int) list;
  excluded_tiles : int list;
  forbidden_hops : (int * int) list;
  forbidden_pairs : (int * int) list;
  wires_per_connection : int;
  buffer_growth_rounds : int;
  throughput_max_steps : int;
  memo : bool;
  analysis : Throughput.method_;
}

let default_options =
  {
    weights = Cost.default_weights;
    fixed = [];
    excluded_tiles = [];
    forbidden_hops = [];
    forbidden_pairs = [];
    wires_per_connection = 8;
    buffer_growth_rounds = 4;
    throughput_max_steps = 400_000;
    memo = true;
    analysis = `State_space;
  }

type error =
  | Infeasible_binding of string
  | Noc_allocation_failed of string
  | Noc_partitioned of { src : int; dst : int }
  | Expansion_failed of string
  | Memory_overflow of Memory_dim.report

let pp_error ppf = function
  | Infeasible_binding msg -> Format.fprintf ppf "infeasible binding: %s" msg
  | Noc_allocation_failed msg -> Format.fprintf ppf "%s" msg
  | Noc_partitioned { src; dst } ->
      Format.fprintf ppf
        "NoC wire allocation failed: no route from %d to %d - the dead links \
         partition the mesh"
        src dst
  | Expansion_failed msg ->
      Format.fprintf ppf "communication-model expansion failed: %s" msg
  | Memory_overflow report ->
      Format.fprintf ppf "mapping does not fit the tile memories:@ %a"
        Memory_dim.pp_report report

let error_to_string e = Format.asprintf "%a" pp_error e

type t = {
  application : Application.t;
  platform : Platform.t;
  options : options;
  binding : Binding.t;
  timed_graph : Graph.t;
  expansion : Comm_map.expansion;
  actor_orders : Execution.resource_binding list;
  schedules : Execution.resource_binding list;
  exec_options : Execution.options;
  predicted : Throughput.result;
  noc_allocation : Noc.allocation option;
  memory : Memory_dim.report;
  buffer_scale : int;
  meets_constraint : bool option;
}

let resource_name tile = Printf.sprintf "tile%d" tile

let inter_tile_channels g binding =
  List.filter
    (fun (c : Graph.channel) ->
      let src = binding (Graph.actor g c.source).Graph.actor_name in
      let dst = binding (Graph.actor g c.target).Graph.actor_name in
      src <> dst)
    (Graph.channels g)

(* One NoC connection per ordered tile pair that carries at least one
   channel; every connection requests the same wire count, so the model
   parameters derived per channel by tile-pair lookup stay correct. *)
let allocate_noc platform g binding ~wires ~forbidden =
  match Platform.noc_mesh platform with
  | None -> Ok None
  | Some mesh ->
      let pairs =
        inter_tile_channels g binding
        |> List.map (fun (c : Graph.channel) ->
               ( binding (Graph.actor g c.source).Graph.actor_name,
                 binding (Graph.actor g c.target).Graph.actor_name ))
        |> List.sort_uniq compare
      in
      let rec try_wires w =
        let requests =
          List.map
            (fun (src, dst) ->
              { Noc.req_src = src; req_dst = dst; req_wires = w })
            pairs
        in
        match Noc.allocate_routed ~forbidden mesh requests with
        | Ok alloc -> Ok (Some alloc)
        | Error (Noc.Partitioned { src; dst }) ->
            (* fewer wires cannot reconnect a partitioned mesh *)
            Error (Noc_partitioned { src; dst })
        | Error e ->
            if w > 1 then try_wires (w / 2)
            else
              Error
                (Noc_allocation_failed
                   (Printf.sprintf "NoC wire allocation failed: %s"
                      (Noc.alloc_error_to_string e)))
      in
      if pairs = [] then
        Ok (Some { Noc.noc = mesh; connections = []; link_load = [] })
      else try_wires (Stdlib.max 1 wires)

(* Buffer growth: scale the token buffers, never the hardware FIFOs. *)
let scale_params scale (c : Graph.channel) (p : Comm_map.channel_params) =
  if scale = 1 then p
  else
    {
      p with
      Comm_map.src_buffer_tokens = p.Comm_map.src_buffer_tokens * scale;
      dst_buffer_tokens =
        (2 * c.consumption_rate * scale) + c.initial_tokens;
    }

let intra_capacity scale (c : Graph.channel) =
  2 * scale * Sdf.Buffers.lower_bound c

let analyse_once binding timed_graph platform noc_allocation options scale
    actor_orders =
  let ( let* ) = Result.bind in
  let binding_fn name = Binding.tile_of binding name in
  let* expansion =
    Comm_map.expand ~graph:timed_graph ~binding:binding_fn ~platform
      ?noc:noc_allocation
      ~intra_tile_capacity:(intra_capacity scale)
      ~params_override:(scale_params scale) ()
  in
  let schedules = Order.micro_orders ~expansion ~timed_graph ~actor_orders in
  let exec_options =
    {
      Execution.default_options with
      auto_concurrency = None;
      resources = schedules;
      max_firings = 50_000_000;
    }
  in
  let analyse =
    if options.memo then Throughput.analyse_memo else Throughput.analyse
  in
  let predicted =
    analyse ~options:exec_options ~max_steps:options.throughput_max_steps
      ~method_:options.analysis expansion.Comm_map.graph
  in
  Ok (expansion, schedules, exec_options, predicted)

let run app platform ?(options = default_options) () =
  let ( let* ) = Result.bind in
  let* binding =
    Result.map_error
      (fun m -> Infeasible_binding m)
      (Binding.bind app platform ~weights:options.weights ~fixed:options.fixed
         ~excluded:options.excluded_tiles
         ~forbidden_pairs:options.forbidden_pairs ())
  in
  let* timed_graph =
    Result.map_error
      (fun m -> Infeasible_binding m)
      (Application.graph_for app ~assignment:(fun actor ->
           Binding.required_processor
             (Platform.tile platform (Binding.tile_of binding actor))))
  in
  let* noc_allocation =
    allocate_noc platform timed_graph
      (fun name -> Binding.tile_of binding name)
      ~wires:options.wires_per_connection ~forbidden:options.forbidden_hops
  in
  let* actor_orders =
    Result.map_error
      (fun m -> Expansion_failed m)
      (Order.actor_orders ~timed_graph ~binding:(fun name ->
           Binding.tile_of binding name))
  in
  let target = Application.throughput_constraint app in
  let good predicted =
    match (target, predicted) with
    | None, _ -> true
    | Some t, Throughput.Throughput { throughput; _ } ->
        Rational.compare throughput t >= 0
    | ( Some _,
        ( Throughput.Deadlocked _ | Throughput.No_recurrence
        | Throughput.Budget_exhausted _ ) ) ->
        false
  in
  let value p =
    match p with
    | Throughput.Throughput { throughput; _ } -> Rational.to_float throughput
    | Throughput.Deadlocked _ | Throughput.No_recurrence
    | Throughput.Budget_exhausted _ ->
        -1.0
  in
  (* Buffer distribution search: with a throughput constraint, grow until
     it is met; without one, grow until throughput saturates (an extra
     doubling buys less than 1%) — SDF3's "calculate buffer
     distributions" step. *)
  let rec search scale round best =
    let* result =
      Result.map_error
        (fun m -> Expansion_failed m)
        (analyse_once binding timed_graph platform noc_allocation options scale
           actor_orders)
    in
    let _, _, _, predicted = result in
    let improved =
      match best with
      | None -> true
      | Some (_, (_, _, _, best_predicted)) ->
          value predicted > value best_predicted *. 1.01
    in
    let best =
      match best with
      | Some (_, (_, _, _, best_predicted))
        when value predicted <= value best_predicted ->
          best
      | Some _ | None -> Some (scale, result)
    in
    let continue_search =
      round < options.buffer_growth_rounds
      &&
      match target with
      | Some _ -> not (good predicted)
      | None -> improved
    in
    if continue_search then search (scale * 2) (round + 1) best
    else Ok (Option.get best)
  in
  let* scale, (expansion, schedules, exec_options, predicted) =
    search 1 0 None
  in
  let buffers (c : Graph.channel) =
    let src = Binding.tile_of binding (Graph.actor timed_graph c.source).Graph.actor_name in
    let dst = Binding.tile_of binding (Graph.actor timed_graph c.target).Graph.actor_name in
    if src = dst then
      Memory_dim.Intra
        (Stdlib.max (Sdf.Buffers.lower_bound c) (intra_capacity scale c))
    else
      Memory_dim.Inter
        ( Stdlib.max c.production_rate (2 * c.production_rate * scale),
          (2 * c.consumption_rate * scale) + c.initial_tokens )
  in
  let memory = Memory_dim.dimension app platform binding ~buffers in
  if not memory.Memory_dim.fits then Error (Memory_overflow memory)
  else
    Ok
      {
        application = app;
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
      }

let throughput t =
  match t.predicted with
  | Throughput.Throughput { throughput; _ } -> Some throughput
  | Throughput.Deadlocked _ | Throughput.No_recurrence
  | Throughput.Budget_exhausted _ ->
      None

let analysis_budget t =
  match t.predicted with
  | Throughput.Budget_exhausted { steps } -> Some steps
  | Throughput.Throughput _ | Throughput.Deadlocked _
  | Throughput.No_recurrence ->
      None

(* The first iteration of a self-timed HSDF run, symbolically: an edge
   with initial tokens is satisfied from reset, so instance [v] starts once
   its zero-token predecessors have finished, and the iteration ends with
   the latest finish — a longest path over the zero-token edges, taken in
   Kahn order. An instance on a zero-token cycle never starts. *)
let zero_token_makespan (c : Sdf.Mcm.csr) =
  let { Sdf.Mcm.time; row; succ; tokens } = c in
  let n = Array.length time in
  let pending = Array.make n 0 in
  Array.iteri
    (fun i v -> if tokens.(i) = 0 then pending.(v) <- pending.(v) + 1)
    succ;
  let start = Array.make n 0 and queue = Array.make n 0 in
  let nq = ref 0 in
  Array.iteri
    (fun v p ->
      if p = 0 then begin
        queue.(!nq) <- v;
        incr nq
      end)
    pending;
  let latest = ref 0 and k = ref 0 in
  while !k < !nq do
    let u = queue.(!k) in
    incr k;
    let finish = start.(u) + time.(u) in
    if finish > !latest then latest := finish;
    for i = row.(u) to row.(u + 1) - 1 do
      if tokens.(i) = 0 then begin
        let v = succ.(i) in
        if finish > start.(v) then start.(v) <- finish;
        pending.(v) <- pending.(v) - 1;
        if pending.(v) = 0 then begin
          queue.(!nq) <- v;
          incr nq
        end
      end
    done
  done;
  if !nq = n then Some !latest else None

let first_iteration_latency t =
  let g = t.expansion.Comm_map.graph in
  match Sdf.Hsdf.expand_csr ~options:t.exec_options g with
  | Ok c -> zero_token_makespan c
  | Error _ -> (
      let outcome = Execution.run ~options:t.exec_options g ~iterations:1 in
      match outcome.Execution.stop with
      | Execution.Finished -> Some outcome.Execution.end_time
      | Execution.Deadlocked | Execution.Out_of_budget -> None)

let reanalyse t ~times ?(analysis = `State_space) () =
  let ( let* ) = Result.bind in
  let retimed =
    Graph.with_execution_times t.timed_graph (fun a ->
        times a.Graph.actor_name)
  in
  let* expansion =
    Comm_map.expand ~graph:retimed
      ~binding:(fun name -> Binding.tile_of t.binding name)
      ~platform:t.platform ?noc:t.noc_allocation
      ~intra_tile_capacity:(intra_capacity t.buffer_scale)
      ~params_override:(scale_params t.buffer_scale) ()
  in
  let schedules =
    Order.micro_orders ~expansion ~timed_graph:retimed
      ~actor_orders:t.actor_orders
  in
  let exec_options =
    {
      Execution.default_options with
      auto_concurrency = None;
      resources = schedules;
      max_firings = 50_000_000;
    }
  in
  let analyse =
    if t.options.memo then Throughput.analyse_memo else Throughput.analyse
  in
  Ok
    (analyse ~options:exec_options ~max_steps:t.options.throughput_max_steps
       ~method_:analysis expansion.Comm_map.graph)

let to_xml t =
  let module Xml = Xmlkit.Xml in
  let binds =
    List.map
      (fun (actor, tile) ->
        Xml.element "bind"
          ~attrs:
            [
              ("actor", actor);
              ("tile", (Platform.tile t.platform tile).Arch.Tile.tile_name);
            ])
      (List.sort compare t.binding.Binding.assignment)
  in
  let schedules =
    List.map
      (fun (b : Execution.resource_binding) ->
        Xml.element "schedule"
          ~attrs:[ ("tile", b.resource_name) ]
          ~children:
            (Array.to_list b.static_order
            |> List.map (fun id ->
                   Xml.element "fire"
                     ~attrs:
                       [
                         ( "actor",
                           (Graph.actor t.timed_graph id).Graph.actor_name );
                       ])))
      t.actor_orders
  in
  let buffers =
    List.map
      (fun (channel, capacity) ->
        Xml.element "buffer"
          ~attrs:
            [ ("channel", channel); ("capacity", string_of_int capacity) ])
      t.expansion.Comm_map.intra_capacities
    @ List.map
        (fun ic ->
          Xml.element "connection"
            ~attrs:
              [
                ("channel", ic.Comm_map.ic_name);
                ("srcTile", string_of_int ic.Comm_map.ic_src_tile);
                ("dstTile", string_of_int ic.Comm_map.ic_dst_tile);
                ( "srcBufferTokens",
                  string_of_int ic.Comm_map.ic_params.Comm_map.src_buffer_tokens );
                ( "dstBufferTokens",
                  string_of_int ic.Comm_map.ic_params.Comm_map.dst_buffer_tokens );
                ("wordsPerToken", string_of_int ic.Comm_map.ic_words);
              ])
        t.expansion.Comm_map.inter_channels
  in
  let guarantee =
    match throughput t with
    | Some g ->
        [
          Xml.element "throughput"
            ~attrs:
              [
                ("num", string_of_int (g :> Rational.t).num);
                ("den", string_of_int g.den);
              ];
        ]
    | None -> []
  in
  Xml.element "mapping"
    ~attrs:
      [
        ("application", Application.name t.application);
        ("platform", t.platform.Platform.platform_name);
        ("bufferScale", string_of_int t.buffer_scale);
      ]
    ~children:(binds @ schedules @ buffers @ guarantee)

let to_string t = Xmlkit.Xml.to_string (to_xml t)

let pp_summary ppf t =
  Format.fprintf ppf "@[<v>mapping of %S onto %S"
    (Application.name t.application)
    t.platform.Platform.platform_name;
  List.iter
    (fun (actor, tile) ->
      Format.fprintf ppf "@,  %s -> %s" actor
        (Platform.tile t.platform tile).Arch.Tile.tile_name)
    (List.sort compare t.binding.Binding.assignment);
  Format.fprintf ppf "@,  prediction: %a" Throughput.pp_result t.predicted;
  (match first_iteration_latency t with
  | Some latency ->
      Format.fprintf ppf "@,  first iteration after %d cycles" latency
  | None -> ());
  (match t.meets_constraint with
  | Some true -> Format.fprintf ppf "@,  throughput constraint met"
  | Some false -> Format.fprintf ppf "@,  throughput constraint MISSED"
  | None -> ());
  Format.fprintf ppf "@,  buffer scale: %dx@]" t.buffer_scale
