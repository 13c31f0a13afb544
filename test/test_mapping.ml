module Application = Appmodel.Application
module Actor_impl = Appmodel.Actor_impl
module Metrics = Appmodel.Metrics
module Graph = Sdf.Graph
module Rational = Sdf.Rational
open Mapping

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let rational = Alcotest.testable Rational.pp Rational.equal

let impl ?(processor_type = "microblaze") ?(wcet = 10) ?(imem = 1024)
    ?(dmem = 512) name =
  Actor_impl.make ~name ~processor_type
    ~metrics:(Metrics.make ~wcet ~instruction_memory:imem ~data_memory:dmem)
    (fun _ -> [])

(* producer -> consumer with a double-buffer space edge so the unmapped
   graph is bounded, parameterized in rates and token size *)
let pipe_app ?(production = 1) ?(consumption = 1) ?(token_bytes = 8)
    ?(wcet_src = 10) ?(wcet_dst = 10) ?(buffer_factor = 2) () =
  let g = Rational.gcd_int production consumption in
  Application.make ~name:"pipe"
    ~actors:
      [
        { Application.a_name = "src"; a_implementations = [ impl ~wcet:wcet_src "src" ] };
        { Application.a_name = "dst"; a_implementations = [ impl ~wcet:wcet_dst "dst" ] };
      ]
    ~channels:
      [
        Application.channel ~name:"data" ~source:"src" ~production
          ~target:"dst" ~consumption ~token_bytes ();
        Application.channel ~name:"data__bound" ~source:"dst"
          ~production:consumption ~target:"src" ~consumption:production
          ~initial_tokens:(buffer_factor * (production + consumption - g))
          ~token_bytes:0 ();
      ]
    ()

let pipe_app_exn ?production ?consumption ?token_bytes ?wcet_src ?wcet_dst
    ?buffer_factor () =
  match
    pipe_app ?production ?consumption ?token_bytes ?wcet_src ?wcet_dst
      ?buffer_factor ()
  with
  | Ok app -> app
  | Error e -> Alcotest.failf "pipe app: %s" e

let two_tile_platform ?(interconnect = Arch.Platform.Point_to_point Arch.Fsl.default) () =
  match
    Arch.Platform.make ~name:"p2"
      ~tiles:[ Arch.Tile.master "tile0"; Arch.Tile.slave "tile1" ]
      interconnect
  with
  | Ok p -> p
  | Error e -> Alcotest.failf "platform: %s" e

(* --- cost ------------------------------------------------------------------ *)

let test_cost_terms () =
  check bool "processing grows" true
    (Cost.processing_cost { Cost.cycles = 10; imem = 0; dmem = 0 } ~added_cycles:5
    > Cost.processing_cost Cost.empty_load ~added_cycles:5);
  let tile = Arch.Tile.slave "t" in
  check bool "memory fits" true
    (Cost.memory_cost Cost.empty_load ~tile ~added_imem:1024 ~added_dmem:1024
    < 1.0);
  check bool "memory overflow infinite" true
    (Cost.memory_cost Cost.empty_load ~tile ~added_imem:(1024 * 1024)
       ~added_dmem:0
    = infinity);
  check bool "communication scales with distance" true
    (Cost.communication_cost ~bytes_per_iteration:100 ~distance:2
    = 2.0 *. Cost.communication_cost ~bytes_per_iteration:100 ~distance:1)

(* --- binding ---------------------------------------------------------------- *)

let test_binding_basic () =
  let app = pipe_app_exn () in
  let platform = two_tile_platform () in
  match Binding.bind app platform () with
  | Error e -> Alcotest.fail e
  | Ok binding ->
      check int "all actors bound" 2 (List.length binding.Binding.assignment);
      let cost = Binding.total_cost app platform binding in
      check bool "finite cost" true (cost < infinity)

let test_binding_fixed () =
  let app = pipe_app_exn () in
  let platform = two_tile_platform () in
  match Binding.bind app platform ~fixed:[ ("src", 0); ("dst", 1) ] () with
  | Error e -> Alcotest.fail e
  | Ok binding ->
      check int "src pinned" 0 (Binding.tile_of binding "src");
      check int "dst pinned" 1 (Binding.tile_of binding "dst");
      check (Alcotest.list string) "actors on tile1" [ "dst" ]
        (Binding.actors_on binding ~tile:1)

let test_binding_infeasible () =
  let app =
    match
      Application.make ~name:"exotic"
        ~actors:
          [
            {
              Application.a_name = "A";
              a_implementations = [ impl ~processor_type:"dsp" "a" ];
            };
          ]
        ~channels:
          [
            Application.channel ~name:"self" ~source:"A" ~production:1
              ~target:"A" ~consumption:1 ~initial_tokens:1 ();
          ]
        ()
    with
    | Ok app -> app
    | Error e -> Alcotest.failf "app: %s" e
  in
  match Binding.bind app (two_tile_platform ()) () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bound an actor with no feasible tile"

let test_binding_memory_pressure () =
  (* two actors that each fill a whole tile's memory cannot share one *)
  let big name = impl ~imem:(100 * 1024) ~dmem:(100 * 1024) name in
  let app =
    match
      Application.make ~name:"big"
        ~actors:
          [
            { Application.a_name = "A"; a_implementations = [ big "a" ] };
            { Application.a_name = "B"; a_implementations = [ big "b" ] };
          ]
        ~channels:
          [
            Application.channel ~name:"ab" ~source:"A" ~production:1
              ~target:"B" ~consumption:1 ();
            Application.channel ~name:"ba" ~source:"B" ~production:1
              ~target:"A" ~consumption:1 ~initial_tokens:2 ();
          ]
        ()
    with
    | Ok app -> app
    | Error e -> Alcotest.failf "app: %s" e
  in
  let platform = two_tile_platform () in
  match Binding.bind app platform () with
  | Error e -> Alcotest.fail e
  | Ok binding ->
      check bool "actors on distinct tiles" true
        (Binding.tile_of binding "A" <> Binding.tile_of binding "B")

let test_distance () =
  let fsl = two_tile_platform () in
  check int "same tile" 0 (Binding.distance fsl 0 0);
  check int "fsl distance" 1 (Binding.distance fsl 0 1);
  let noc =
    match
      Arch.Platform.make ~name:"p9"
        ~tiles:(List.init 9 (fun i -> Arch.Tile.slave (Printf.sprintf "t%d" i)))
        (Arch.Platform.Sdm_noc Arch.Noc.default_config)
    with
    | Ok p -> p
    | Error e -> Alcotest.failf "platform: %s" e
  in
  check int "noc manhattan" 4 (Binding.distance noc 0 8)

(* --- comm_map ----------------------------------------------------------------- *)

let expand_pipe ?production ?consumption ?token_bytes ~same_tile () =
  let app = pipe_app_exn ?production ?consumption ?token_bytes () in
  let platform = two_tile_platform () in
  let binding name = if name = "src" || same_tile then 0 else 1 in
  let g = Application.graph app in
  match Comm_map.expand ~graph:g ~binding ~platform () with
  | Ok e -> (g, e)
  | Error msg -> Alcotest.failf "expand: %s" msg

let test_expand_intra () =
  let _, e = expand_pipe ~same_tile:true () in
  (* both channels stay direct; each gains a space edge *)
  check int "actors unchanged" 2 (Graph.actor_count e.Comm_map.graph);
  check int "channels + space edges" 4 (Graph.channel_count e.Comm_map.graph);
  check int "no inter channels" 0 (List.length e.Comm_map.inter_channels);
  check bool "capacity recorded" true
    (List.mem_assoc "data" e.Comm_map.intra_capacities);
  check bool "still deadlock free" true
    (Sdf.Analysis.is_deadlock_free e.Comm_map.graph)

let test_expand_inter () =
  let _, e = expand_pipe ~same_tile:false ~token_bytes:12 () in
  (* 2 original actors + 8 construct actors per inter-tile channel; the
     reverse bound edge is itself inter-tile too *)
  check int "inter channels" 2 (List.length e.Comm_map.inter_channels);
  check int "actors" (2 + (2 * 8)) (Graph.actor_count e.Comm_map.graph);
  let ic =
    List.find (fun i -> i.Comm_map.ic_name = "data") e.Comm_map.inter_channels
  in
  check int "words per token" 3 ic.Comm_map.ic_words;
  check bool "consistent" true (Sdf.Repetition.is_consistent e.Comm_map.graph);
  check bool "deadlock free" true
    (Sdf.Analysis.is_deadlock_free e.Comm_map.graph)

let test_expand_rates_preserved () =
  let g, e = expand_pipe ~same_tile:false ~production:3 ~consumption:2 () in
  (* the expanded graph must keep the same iteration structure: repetition
     of the original actors is unchanged *)
  let q_orig = Sdf.Repetition.vector_exn g in
  let q_exp = Sdf.Repetition.vector_exn e.Comm_map.graph in
  List.iter
    (fun (name, id) ->
      let orig = (Graph.actor_of_name g name).Graph.actor_id in
      check int (name ^ " repetition") q_orig.(orig) q_exp.(id))
    e.Comm_map.original_actor

let test_params_for_fsl () =
  let app = pipe_app_exn ~token_bytes:16 () in
  let platform = two_tile_platform () in
  let g = Application.graph app in
  let channel = Graph.channel g 0 in
  match
    Comm_map.params_for ~platform ~noc:None ~src_tile:0 ~dst_tile:1 ~channel
  with
  | Error e -> Alcotest.fail e
  | Ok p ->
      check int "fsl rate" 1 p.Comm_map.rate_cycles_per_word;
      check int "fsl latency" 1 p.Comm_map.latency_cycles;
      check bool "master serializes on pe" true p.Comm_map.ser_on_pe;
      check bool "slave deserializes on pe" true p.Comm_map.deser_on_pe;
      check int "src double buffer" 2 p.Comm_map.src_buffer_tokens

let test_params_for_ca_tile () =
  let app = pipe_app_exn () in
  let platform =
    match
      Arch.Platform.make ~name:"ca"
        ~tiles:[ Arch.Tile.with_ca "tile0"; Arch.Tile.slave "tile1" ]
        (Arch.Platform.Point_to_point Arch.Fsl.default)
    with
    | Ok p -> p
    | Error e -> Alcotest.failf "platform: %s" e
  in
  let channel = Graph.channel (Application.graph app) 0 in
  match
    Comm_map.params_for ~platform ~noc:None ~src_tile:0 ~dst_tile:1 ~channel
  with
  | Error e -> Alcotest.fail e
  | Ok p ->
      check bool "ca offloads serialization" false p.Comm_map.ser_on_pe;
      check bool "pe still deserializes" true p.Comm_map.deser_on_pe

let test_params_for_noc_requires_allocation () =
  let app = pipe_app_exn () in
  let platform = two_tile_platform ~interconnect:(Arch.Platform.Sdm_noc Arch.Noc.default_config) () in
  let channel = Graph.channel (Application.graph app) 0 in
  match
    Comm_map.params_for ~platform ~noc:None ~src_tile:0 ~dst_tile:1 ~channel
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "NoC params without allocation accepted"

(* --- orders -------------------------------------------------------------------- *)

let test_micro_orders () =
  let app = pipe_app_exn ~production:2 ~consumption:1 ~token_bytes:8 () in
  let g = Application.graph app in
  let binding name = if name = "src" then 0 else 1 in
  let platform = two_tile_platform () in
  match Comm_map.expand ~graph:g ~binding ~platform () with
  | Error e -> Alcotest.fail e
  | Ok expansion -> (
      match Order.actor_orders ~timed_graph:g ~binding with
      | Error e -> Alcotest.fail e
      | Ok actor_orders ->
          let micro =
            Order.micro_orders ~expansion ~timed_graph:g ~actor_orders
          in
          let tile0 =
            List.find
              (fun (r : Sdf.Execution.resource_binding) ->
                r.resource_name = "tile0")
              micro
          in
          (* src fires once per iteration, produces 2 tokens of 2 words on
             the data channel: 1 fire + 2 x (s0 + 2 x s1) = 7 entries, plus
             the reverse bound channel's d1 words (2 tokens in, 0-byte
             tokens count 1 word each): src consumes 2 -> 2 d1 entries *)
          check int "tile0 entries" (2 + 1 + (2 * 3)) (Array.length tile0.static_order))

(* --- memory dimensioning ---------------------------------------------------------- *)

let test_memory_dim () =
  let app = pipe_app_exn ~token_bytes:100 () in
  let platform = two_tile_platform () in
  match Binding.bind app platform ~fixed:[ ("src", 0); ("dst", 1) ] () with
  | Error e -> Alcotest.fail e
  | Ok binding ->
      let report =
        Memory_dim.dimension app platform binding ~buffers:(fun c ->
            if Graph.is_self_loop c then Memory_dim.Intra 1
            else Memory_dim.Inter (2, 3))
      in
      check bool "fits" true report.Memory_dim.fits;
      let t0 = List.nth report.Memory_dim.tiles 0 in
      let t1 = List.nth report.Memory_dim.tiles 1 in
      (* data channel: 100B tokens, 2 at src, 3 at dst; bound channel: 0B *)
      check int "src buffer bytes" 200 t0.Memory_dim.buffer_bytes;
      check int "dst buffer bytes" 300 t1.Memory_dim.buffer_bytes;
      check bool "runtime accounted" true
        (t0.Memory_dim.imem_used >= Memory_dim.runtime_imem_bytes)

let test_memory_overflow () =
  let app = pipe_app_exn ~token_bytes:4 () in
  let tiny =
    match
      Arch.Platform.make ~name:"tiny"
        ~tiles:
          [
            Arch.Tile.master ~imem_capacity:1024 ~dmem_capacity:1024 "tile0";
            Arch.Tile.slave "tile1";
          ]
        (Arch.Platform.Point_to_point Arch.Fsl.default)
    with
    | Ok p -> p
    | Error e -> Alcotest.failf "platform: %s" e
  in
  match Binding.bind app tiny ~fixed:[ ("src", 0); ("dst", 1) ] () with
  | Error _ -> () (* binder may already reject the overfull tile *)
  | Ok binding ->
      let report =
        Memory_dim.dimension app tiny binding ~buffers:(fun _ ->
            Memory_dim.Intra 1)
      in
      check bool "overflow detected" false report.Memory_dim.fits

(* --- flow_map ------------------------------------------------------------------------ *)

let test_flow_map_run () =
  let app = pipe_app_exn ~wcet_src:10 ~wcet_dst:30 ~token_bytes:8 () in
  let platform = two_tile_platform () in
  let options =
    { Flow_map.default_options with fixed = [ ("src", 0); ("dst", 1) ] }
  in
  match Flow_map.run app platform ~options () with
  | Error e -> Alcotest.fail (Flow_map.error_to_string e)
  | Ok mapping -> (
      check (Alcotest.option bool) "no constraint" None
        mapping.Flow_map.meets_constraint;
      match Flow_map.throughput mapping with
      | None -> Alcotest.fail "expected a throughput"
      | Some thr ->
          (* the slow consumer (30 cycles) bounds the unmapped graph; the
             mapped graph adds communication, so the bound is conservative *)
          check bool "positive" true (Rational.sign thr > 0);
          check bool "conservative vs compute bound" true
            (Rational.compare thr (Rational.make 1 30) <= 0))

let test_flow_map_latency () =
  let app = pipe_app_exn ~wcet_src:10 ~wcet_dst:30 ~token_bytes:8 () in
  let platform = two_tile_platform () in
  let options =
    { Flow_map.default_options with fixed = [ ("src", 0); ("dst", 1) ] }
  in
  match Flow_map.run app platform ~options () with
  | Error e -> Alcotest.fail (Flow_map.error_to_string e)
  | Ok mapping -> (
      match Flow_map.first_iteration_latency mapping with
      | None -> Alcotest.fail "expected a latency"
      | Some latency ->
          (* the first token must traverse src, the link and dst: latency is
             at least the two firings plus some transfer time, and at least
             one steady-state period *)
          check bool "covers the critical path" true (latency >= 10 + 30);
          let period =
            match Flow_map.throughput mapping with
            | Some thr -> Rational.to_float (Rational.inv thr)
            | None -> 0.0
          in
          check bool "at least one period" true (float_of_int latency >= period))

(* The case study's first-iteration latency on the five-tile FSL and NoC
   platforms, as the MAMPS project's mapping.txt reports it. *)
let test_case_study_latency () =
  List.iter
    (fun (name, template, cycles) ->
      check (Alcotest.option int) (name ^ " first-iteration latency")
        (Some cycles)
        (Flow_map.first_iteration_latency (Case_study.mapping template)))
    [ ("fsl", Case_study.fsl, 81151); ("noc", Case_study.noc, 81171) ]

let test_flow_map_reanalyse_identity () =
  let app = pipe_app_exn () in
  let platform = two_tile_platform () in
  match Flow_map.run app platform () with
  | Error e -> Alcotest.fail (Flow_map.error_to_string e)
  | Ok mapping -> (
      let times name =
        (Graph.actor_of_name mapping.Flow_map.timed_graph name).execution_time
      in
      match Flow_map.reanalyse mapping ~times () with
      | Error e -> Alcotest.fail e
      | Ok result -> (
          match Sdf.Throughput.to_rational_opt result with
          | None -> Alcotest.fail "reanalysis produced no steady-state rate"
          | Some rate ->
              check rational "same times give same prediction"
                (Option.get (Flow_map.throughput mapping))
                rate))

let test_flow_map_constraint_flag () =
  let build constraint_ =
    match
      pipe_app ~wcet_src:10 ~wcet_dst:10 ()
      |> Result.map (fun _ -> ())
    with
    | _ -> (
        (* rebuild with the throughput constraint attached *)
        match
          Application.make ~name:"pipe"
            ~actors:
              [
                { Application.a_name = "src"; a_implementations = [ impl "src" ] };
                { Application.a_name = "dst"; a_implementations = [ impl "dst" ] };
              ]
            ~channels:
              [
                Application.channel ~name:"data" ~source:"src" ~production:1
                  ~target:"dst" ~consumption:1 ~token_bytes:8 ();
                Application.channel ~name:"data__bound" ~source:"dst"
                  ~production:1 ~target:"src" ~consumption:1 ~initial_tokens:2
                  ~token_bytes:0 ();
              ]
            ~throughput_constraint:constraint_ ()
        with
        | Ok app -> app
        | Error e -> Alcotest.failf "app: %s" e)
  in
  let platform = two_tile_platform () in
  (* an absurd constraint cannot be met *)
  (match Flow_map.run (build (Rational.make 1 2)) platform () with
  | Error e -> Alcotest.fail (Flow_map.error_to_string e)
  | Ok mapping ->
      check (Alcotest.option bool) "missed" (Some false)
        mapping.Flow_map.meets_constraint);
  (* a lax one is met *)
  match Flow_map.run (build (Rational.make 1 100_000)) platform () with
  | Error e -> Alcotest.fail (Flow_map.error_to_string e)
  | Ok mapping ->
      check (Alcotest.option bool) "met" (Some true)
        mapping.Flow_map.meets_constraint

(* --- conservativeness property -------------------------------------------------------- *)

let mapping_props =
  let open QCheck in
  let gen =
    Gen.(
      let* production = int_range 1 3 in
      let* consumption = int_range 1 3 in
      let* token_bytes = oneofl [ 4; 8; 32; 100 ] in
      let* wcet_src = int_range 5 200 in
      let* wcet_dst = int_range 5 200 in
      let* same_tile = bool in
      return (production, consumption, token_bytes, wcet_src, wcet_dst, same_tile))
  in
  let print (p, c, z, ws, wd, same) =
    Printf.sprintf "p=%d c=%d z=%d ws=%d wd=%d same=%b" p c z ws wd same
  in
  [
    Test.make ~count:60
      ~name:"mapping a channel never raises predicted throughput"
      (make gen ~print)
      (fun (production, consumption, token_bytes, wcet_src, wcet_dst, same_tile) ->
        let app =
          match
            pipe_app ~production ~consumption ~token_bytes ~wcet_src ~wcet_dst
              ~buffer_factor:4 ()
          with
          | Ok app -> app
          | Error _ -> assume_fail ()
        in
        let unmapped =
          Sdf.Throughput.analyse (Application.graph app)
        in
        let platform = two_tile_platform () in
        let options =
          {
            Flow_map.default_options with
            fixed = [ ("src", 0); ("dst", (if same_tile then 0 else 1)) ];
          }
        in
        match (unmapped, Flow_map.run app platform ~options ()) with
        | Sdf.Throughput.Throughput { throughput = free; _ }, Ok mapping -> (
            match Flow_map.throughput mapping with
            | Some mapped -> Rational.compare mapped free <= 0
            | None -> false)
        | _ -> false);
  ]

let () =
  Alcotest.run "mapping"
    [
      ("cost", [ Alcotest.test_case "terms" `Quick test_cost_terms ]);
      ( "binding",
        [
          Alcotest.test_case "basic" `Quick test_binding_basic;
          Alcotest.test_case "fixed" `Quick test_binding_fixed;
          Alcotest.test_case "infeasible" `Quick test_binding_infeasible;
          Alcotest.test_case "memory pressure" `Quick test_binding_memory_pressure;
          Alcotest.test_case "distance" `Quick test_distance;
        ] );
      ( "comm_map",
        [
          Alcotest.test_case "intra" `Quick test_expand_intra;
          Alcotest.test_case "inter" `Quick test_expand_inter;
          Alcotest.test_case "rates preserved" `Quick test_expand_rates_preserved;
          Alcotest.test_case "fsl params" `Quick test_params_for_fsl;
          Alcotest.test_case "ca params" `Quick test_params_for_ca_tile;
          Alcotest.test_case "noc params need allocation" `Quick
            test_params_for_noc_requires_allocation;
        ] );
      ("orders", [ Alcotest.test_case "micro orders" `Quick test_micro_orders ]);
      ( "memory",
        [
          Alcotest.test_case "dimensioning" `Quick test_memory_dim;
          Alcotest.test_case "overflow" `Quick test_memory_overflow;
        ] );
      ( "flow_map",
        [
          Alcotest.test_case "run" `Quick test_flow_map_run;
          Alcotest.test_case "latency" `Quick test_flow_map_latency;
          Alcotest.test_case "case study latency" `Quick
            test_case_study_latency;
          Alcotest.test_case "reanalyse identity" `Quick test_flow_map_reanalyse_identity;
          Alcotest.test_case "constraint flag" `Quick test_flow_map_constraint_flag;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest mapping_props);
    ]
