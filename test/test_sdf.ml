open Sdf

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let rational =
  Alcotest.testable (fun ppf r -> Rational.pp ppf r) Rational.equal

let throughput_of result =
  match Throughput.to_rational_opt result with
  | Some r -> r
  | None ->
      Alcotest.failf "no throughput verdict: %a" Throughput.pp_result result

(* --- Rational ---------------------------------------------------------- *)

let test_rational_normalization () =
  let r = Rational.make 4 8 in
  check int "num" 1 (r :> Rational.t).num;
  check int "den" 2 r.den;
  let r = Rational.make 3 (-6) in
  check int "num negative moves up" (-1) r.num;
  check int "den positive" 2 r.den;
  check bool "zero" true Rational.(equal (make 0 5) zero)

let test_rational_arithmetic () =
  let open Rational in
  check rational "1/2 + 1/3" (make 5 6) (add (make 1 2) (make 1 3));
  check rational "1/2 - 1/3" (make 1 6) (sub (make 1 2) (make 1 3));
  check rational "2/3 * 3/4" (make 1 2) (mul (make 2 3) (make 3 4));
  check rational "1/2 / 1/4" (of_int 2) (div (make 1 2) (make 1 4));
  check rational "inv" (make 3 2) (inv (make 2 3));
  check int "compare" (-1) (compare (make 1 3) (make 1 2));
  check bool "is_integer" true (is_integer (make 6 3));
  check int "to_int_exn" 2 (to_int_exn (make 6 3))

let test_rational_errors () =
  Alcotest.check_raises "zero denominator"
    (Invalid_argument "Rational.make: zero denominator") (fun () ->
      ignore (Rational.make 1 0));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Rational.div Rational.one Rational.zero));
  Alcotest.check_raises "inv zero" Division_by_zero (fun () ->
      ignore (Rational.inv Rational.zero))

(* Regression: the old compare/add/sub/mul cross-multiplied raw ints and
   silently wrapped for operands near max_int/2 — e.g. the old compare
   reported big/3 < 3/big. Reduction by gcd must keep representable
   results exact, and inherent overflow must raise, never wrap. *)
let test_rational_overflow_safety () =
  let open Rational in
  let big = max_int / 2 in
  (* old code: compare (make big 3) (make 3 big) = -1 (wrapped products) *)
  check int "big/3 > 3/big" 1 (compare (make big 3) (make 3 big));
  check int "3/big < big/3" (-1) (compare (make 3 big) (make big 3));
  check int "big > 1/big" 1 (compare (of_int big) (make 1 big));
  check int "near-max neighbours ordered" 1
    (compare (make big (big - 1)) (make (big + 1) big));
  check int "equal large values" 0 (compare (make big 7) (make big 7));
  (* cross-gcd reduction keeps representable products exact
     (old code: nums big*3 and dens 3*big both wrapped) *)
  check rational "big/3 * 3/big = 1" one (mul (make big 3) (make 3 big));
  check rational "(big/7) / (big/7) = 1" one (div (make big 7) (make big 7));
  check rational "add over common den" (make (big * 2) 3)
    (add (make big 3) (make big 3));
  check rational "sub cancels" zero (sub (make big 3) (make big 3));
  (* inherent overflow is detected, not wrapped *)
  Alcotest.check_raises "add overflows num" Overflow (fun () ->
      ignore (add (of_int max_int) (of_int max_int)));
  Alcotest.check_raises "add overflows den" Overflow (fun () ->
      ignore (add (make 1 big) (make 1 (big - 1))));
  Alcotest.check_raises "mul overflows" Overflow (fun () ->
      ignore (mul (of_int big) (of_int big)));
  Alcotest.check_raises "sub overflows" Overflow (fun () ->
      ignore (sub (of_int max_int) (of_int (-max_int))));
  Alcotest.check_raises "lcm overflows" Overflow (fun () ->
      ignore (lcm_int big (big - 1)))

let test_gcd_lcm () =
  check int "gcd" 6 (Rational.gcd_int 12 18);
  check int "gcd neg" 6 (Rational.gcd_int (-12) 18);
  check int "gcd zero" 5 (Rational.gcd_int 0 5);
  check int "lcm" 36 (Rational.lcm_int 12 18);
  check int "lcm zero" 0 (Rational.lcm_int 0 7)

let rational_props =
  let pair = QCheck.(pair (int_range (-50) 50) (int_range 1 50)) in
  [
    QCheck.Test.make ~count:200 ~name:"rational normal form"
      pair
      (fun (n, d) ->
        let r = Rational.make n d in
        r.den > 0 && Rational.gcd_int r.num r.den <= 1 || (r.num = 0 && r.den = 1));
    QCheck.Test.make ~count:200 ~name:"add commutes" (QCheck.pair pair pair)
      (fun ((a, b), (c, d)) ->
        let x = Rational.make a b and y = Rational.make c d in
        Rational.(equal (add x y) (add y x)));
    QCheck.Test.make ~count:200 ~name:"mul distributes over add"
      (QCheck.triple pair pair pair)
      (fun ((a, b), (c, d), (e, f)) ->
        let x = Rational.make a b
        and y = Rational.make c d
        and z = Rational.make e f in
        Rational.(equal (mul x (add y z)) (add (mul x y) (mul x z))));
  ]

(* --- Heap -------------------------------------------------------------- *)

let test_heap_order () =
  let h = Heap.create () in
  List.iter (fun (k, v) -> Heap.add h ~key:k v)
    [ (5, "a"); (1, "b"); (3, "c"); (1, "d"); (4, "e") ];
  check int "length" 5 (Heap.length h);
  let order = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some (_, v) ->
        order := v :: !order;
        drain ()
    | None -> ()
  in
  drain ();
  check (Alcotest.list string) "stable min order" [ "b"; "d"; "c"; "e"; "a" ]
    (List.rev !order);
  check bool "empty after drain" true (Heap.is_empty h)

let heap_props =
  [
    QCheck.Test.make ~count:100 ~name:"heap pops sorted"
      QCheck.(list (int_range 0 1000))
      (fun keys ->
        let h = Heap.create () in
        List.iter (fun k -> Heap.add h ~key:k ()) keys;
        let rec drain acc =
          match Heap.pop h with
          | Some (k, ()) -> drain (k :: acc)
          | None -> List.rev acc
        in
        let popped = drain [] in
        popped = List.sort compare keys);
  ]

(* --- Graph ------------------------------------------------------------- *)

let test_graph_builder () =
  let g, a, b, c = Tgraphs.figure2 () in
  check int "actors" 3 (Graph.actor_count g);
  check int "channels" 4 (Graph.channel_count g);
  check string "name" "A" (Graph.actor g a).actor_name;
  check int "outgoing of A" 3 (List.length (Graph.outgoing g a));
  check int "incoming of C" 2 (List.length (Graph.incoming g c));
  check bool "self loop" true
    (List.exists Graph.is_self_loop (Graph.outgoing g a));
  check bool "find" true (Graph.find_actor g "B" <> None);
  check bool "find missing" true (Graph.find_actor g "Z" = None);
  ignore b;
  match Graph.validate g with
  | Ok () -> ()
  | Error e -> Alcotest.failf "validate: %s" e

let test_graph_errors () =
  let g = Graph.empty "g" in
  let g, a = Graph.add_actor g ~name:"A" ~execution_time:1 in
  (try
     ignore (Graph.add_actor g ~name:"A" ~execution_time:1);
     Alcotest.fail "duplicate actor accepted"
   with Invalid_argument _ -> ());
  (try
     ignore
       (Graph.add_channel g ~name:"c" ~source:a ~production_rate:0 ~target:a
          ~consumption_rate:1 ());
     Alcotest.fail "zero rate accepted"
   with Invalid_argument _ -> ());
  (try
     ignore
       (Graph.add_channel g ~name:"c" ~source:a ~production_rate:1 ~target:99
          ~consumption_rate:1 ());
     Alcotest.fail "dangling target accepted"
   with Invalid_argument _ -> ());
  try
    ignore
      (Graph.add_channel g ~name:"c" ~source:a ~production_rate:1 ~target:a
         ~consumption_rate:1 ~initial_tokens:(-1) ());
    Alcotest.fail "negative tokens accepted"
  with Invalid_argument _ -> ()

let test_graph_execution_times () =
  let g, a, _, _ = Tgraphs.figure2 () in
  let g' = Graph.with_execution_times g (fun x -> x.execution_time * 2) in
  check int "doubled" 20 (Graph.actor g' a).execution_time;
  check int "structure preserved" 4 (Graph.channel_count g')

(* --- Repetition ---------------------------------------------------------- *)

let test_repetition_figure2 () =
  let g, a, b, c = Tgraphs.figure2 () in
  let q = Repetition.vector_exn g in
  check int "q(A)" 1 q.(a);
  check int "q(B)" 2 q.(b);
  check int "q(C)" 1 q.(c);
  check int "iteration firings" 4 (Repetition.iteration_firings g)

let test_repetition_multirate () =
  let g = Graph.empty "mr" in
  let g, a = Graph.add_actor g ~name:"A" ~execution_time:1 in
  let g, b = Graph.add_actor g ~name:"B" ~execution_time:1 in
  let g, _ =
    Graph.add_channel g ~name:"c" ~source:a ~production_rate:3 ~target:b
      ~consumption_rate:2 ()
  in
  let q = Repetition.vector_exn g in
  check int "q(A)" 2 q.(a);
  check int "q(B)" 3 q.(b)

let test_repetition_inconsistent () =
  let g = Graph.empty "bad" in
  let g, a = Graph.add_actor g ~name:"A" ~execution_time:1 in
  let g, b = Graph.add_actor g ~name:"B" ~execution_time:1 in
  let g, _ =
    Graph.add_channel g ~name:"fwd" ~source:a ~production_rate:1 ~target:b
      ~consumption_rate:1 ()
  in
  let g, _ =
    Graph.add_channel g ~name:"bwd" ~source:b ~production_rate:2 ~target:a
      ~consumption_rate:1 ()
  in
  (match Repetition.compute g with
  | Repetition.Inconsistent _ -> ()
  | _ -> Alcotest.fail "expected inconsistency");
  check bool "is_consistent" false (Repetition.is_consistent g)

let test_repetition_disconnected () =
  let g = Graph.empty "disc" in
  let g, a = Graph.add_actor g ~name:"A" ~execution_time:1 in
  let g, _ = Graph.add_actor g ~name:"B" ~execution_time:1 in
  let g, _ =
    Graph.add_channel g ~name:"self" ~source:a ~production_rate:1 ~target:a
      ~consumption_rate:1 ~initial_tokens:1 ()
  in
  match Repetition.compute g with
  | Repetition.Disconnected_actor x -> check string "witness" "B" x.actor_name
  | _ -> Alcotest.fail "expected disconnected actor"

let test_repetition_empty () =
  match Repetition.compute (Graph.empty "e") with
  | Repetition.Consistent [||] -> ()
  | _ -> Alcotest.fail "empty graph should be trivially consistent"

(* --- Analysis ------------------------------------------------------------ *)

let test_connectivity () =
  let g, _, _, _ = Tgraphs.figure2 () in
  check bool "figure2 connected" true (Analysis.is_weakly_connected g);
  let g = Graph.empty "two" in
  let g, a = Graph.add_actor g ~name:"A" ~execution_time:1 in
  let g, b = Graph.add_actor g ~name:"B" ~execution_time:1 in
  check bool "no channels" false (Analysis.is_weakly_connected g);
  let g, _ =
    Graph.add_channel g ~name:"c" ~source:a ~production_rate:1 ~target:b
      ~consumption_rate:1 ()
  in
  check bool "linked" true (Analysis.is_weakly_connected g)

let test_scc () =
  let g, a, b = Tgraphs.two_cycle ~time_a:1 ~time_b:1 ~tokens:1 in
  (match Analysis.strongly_connected_components g with
  | [ comp ] ->
      check (Alcotest.list int) "one SCC" [ a; b ] (List.sort compare comp)
  | other -> Alcotest.failf "expected 1 SCC, got %d" (List.length other));
  check bool "strongly connected" true (Analysis.is_strongly_connected g);
  let p, _ = Tgraphs.pipeline ~times:[ 1; 1; 1 ] in
  check int "pipeline SCC count" 3
    (List.length (Analysis.strongly_connected_components p));
  check bool "pipeline not strongly connected" false
    (Analysis.is_strongly_connected p)

let test_topological_order () =
  let p, ids = Tgraphs.pipeline ~times:[ 1; 2; 3 ] in
  (match Analysis.topological_order p with
  | Some order ->
      check (Alcotest.list int) "pipeline order" (Array.to_list ids) order
  | None -> Alcotest.fail "pipeline is acyclic");
  (* a token-free cycle has no order and deadlocks *)
  let g, _, _ = Tgraphs.two_cycle ~time_a:1 ~time_b:1 ~tokens:0 in
  check bool "tokenless cycle" true (Analysis.topological_order g = None);
  check bool "deadlocks" false (Analysis.is_deadlock_free g);
  (* tokens on the back edge break the cycle *)
  let g, _, _ = Tgraphs.two_cycle ~time_a:1 ~time_b:1 ~tokens:1 in
  check bool "token cycle has order" true (Analysis.topological_order g <> None)

let test_admission () =
  let g, _, _, _ = Tgraphs.figure2 () in
  (match Analysis.admit g with
  | Ok q -> check int "q length" 3 (Array.length q)
  | Error e -> Alcotest.failf "admit: %a" (fun ppf -> Format.fprintf ppf "%a" Analysis.pp_admission_error) e);
  let bad, _, _ = Tgraphs.two_cycle ~time_a:1 ~time_b:1 ~tokens:0 in
  match Analysis.admit bad with
  | Error Analysis.Deadlocks -> ()
  | _ -> Alcotest.fail "expected deadlock rejection"

(* --- Execution ----------------------------------------------------------- *)

let test_execution_figure2_timing () =
  let g, _, _, _ = Tgraphs.figure2 () in
  let outcome = Execution.run g ~iterations:1 in
  check bool "finished" true (outcome.stop = Execution.Finished);
  (* A:0-10, B:10-14 and 14-18, C:18-24 (C waits for two B tokens) *)
  check int "iteration end" 24 outcome.end_time;
  check int "iterations" 1 outcome.iterations;
  check bool "fired >= 4" true (outcome.firings >= 4)

let test_execution_iteration_times () =
  let g, _, _ = Tgraphs.two_cycle ~time_a:2 ~time_b:3 ~tokens:1 in
  let outcome = Execution.run g ~iterations:3 in
  check bool "finished" true (outcome.stop = Execution.Finished);
  check (Alcotest.array int) "iteration ends" [| 5; 10; 15 |]
    outcome.iteration_end_times

let test_execution_deadlock () =
  let g, _, _ = Tgraphs.two_cycle ~time_a:1 ~time_b:1 ~tokens:0 in
  let outcome = Execution.run g ~iterations:1 in
  check bool "deadlocked" true (outcome.stop = Execution.Deadlocked);
  check int "no progress" 0 outcome.iterations

let test_execution_budget () =
  let g = Graph.empty "zero" in
  let g, a = Graph.add_actor g ~name:"A" ~execution_time:0 in
  let g, _ =
    Graph.add_channel g ~name:"self" ~source:a ~production_rate:1 ~target:a
      ~consumption_rate:1 ~initial_tokens:1 ()
  in
  let options = { Execution.default_options with max_firings = 100 } in
  let outcome = Execution.run ~options g ~iterations:1 in
  check bool "budget stop" true (outcome.stop = Execution.Out_of_budget)

let test_execution_auto_concurrency () =
  (* One actor, no self loop: with unbounded concurrency many firings start
     immediately; with the default bound only one at a time. *)
  let g = Graph.empty "solo" in
  let g, a = Graph.add_actor g ~name:"A" ~execution_time:5 in
  let g, _ =
    Graph.add_channel g ~name:"feed" ~source:a ~production_rate:1 ~target:a
      ~consumption_rate:1 ~initial_tokens:3 ()
  in
  let outcome = Execution.run g ~iterations:3 in
  (* bounded: serialized by the three tokens? no: 3 tokens allow 3 overlapping
     firings, but auto-concurrency 1 allows only one; ends at 15 *)
  check int "serialized" 15 outcome.end_time;
  let options = { Execution.default_options with auto_concurrency = None } in
  let outcome = Execution.run ~options g ~iterations:3 in
  check int "concurrent" 5 outcome.end_time

let test_execution_resources () =
  let g, a, b, c = Tgraphs.figure2 () in
  let binding aid = if aid = a || aid = b || aid = c then Some "pe0" else None in
  match Schedule.list_schedule g ~binding with
  | Error _ -> Alcotest.fail "schedule failed"
  | Ok resources ->
      let options = { Execution.default_options with resources } in
      let outcome = Execution.run ~options g ~iterations:2 in
      check bool "finished" true (outcome.stop = Execution.Finished);
      (* sequential: 10 + 4 + 4 + 6 = 24 per iteration *)
      check (Alcotest.array int) "sequential ends" [| 24; 48 |]
        outcome.iteration_end_times

let test_execution_trace () =
  let g, _, _ = Tgraphs.two_cycle ~time_a:2 ~time_b:3 ~tokens:1 in
  let events = ref [] in
  let options =
    {
      Execution.default_options with
      on_event = Some (fun t e -> events := (t, e) :: !events);
    }
  in
  ignore (Execution.run ~options g ~iterations:1);
  let starts =
    List.filter (function _, Execution.Fire_start _ -> true | _ -> false)
      !events
  in
  check bool "saw starts" true (List.length starts >= 2)

(* --- Throughput ----------------------------------------------------------- *)

let test_throughput_two_cycle () =
  let analyse ~tokens =
    let g, _, _ = Tgraphs.two_cycle ~time_a:2 ~time_b:3 ~tokens in
    Throughput.analyse g
  in
  check rational "1 token" (Rational.make 1 5) (throughput_of (analyse ~tokens:1));
  check rational "2 tokens" (Rational.make 1 3) (throughput_of (analyse ~tokens:2));
  check rational "5 tokens" (Rational.make 1 3) (throughput_of (analyse ~tokens:5))

let test_throughput_figure2 () =
  let g, _, _, _ = Tgraphs.figure2 () in
  check rational "figure2" (Rational.make 1 10) (throughput_of (Throughput.analyse g))

let test_throughput_deadlock () =
  let g, _, _ = Tgraphs.two_cycle ~time_a:1 ~time_b:1 ~tokens:0 in
  match Throughput.analyse g with
  | Throughput.Deadlocked { iterations = 0; _ } -> ()
  | _ -> Alcotest.fail "expected deadlock"

let test_throughput_unbounded () =
  (* a pipeline without buffer bounds accumulates tokens forever, so the
     step budget runs out — a typed budget outcome, not a graph verdict *)
  let g, _ = Tgraphs.pipeline ~times:[ 1; 10 ] in
  match Throughput.analyse ~max_steps:500 g with
  | Throughput.Budget_exhausted { steps = 500 } -> ()
  | r -> Alcotest.failf "expected budget exhaustion, got %a" Throughput.pp_result r

let test_throughput_budget_interrupt () =
  (* an ambient expired deadline interrupts the analysis via the step-loop
     poll instead of burning the whole step budget *)
  let g, _ = Tgraphs.pipeline ~times:[ 1; 10 ] in
  let scope = Exec.Budget.scope ~deadline:(Exec.Budget.after 0.0) () in
  match Exec.Budget.with_scope scope (fun () -> Throughput.analyse g) with
  | exception Exec.Budget.Expired Exec.Budget.Deadline -> ()
  | r -> Alcotest.failf "expected Budget.Expired, got %a" Throughput.pp_result r

let test_throughput_resource_bound () =
  let g, a, b, c = Tgraphs.figure2 () in
  let binding aid = if aid = a || aid = b || aid = c then Some "pe0" else None in
  match Schedule.list_schedule g ~binding with
  | Error _ -> Alcotest.fail "schedule failed"
  | Ok resources ->
      let options = { Execution.default_options with resources } in
      check rational "1/24" (Rational.make 1 24)
        (throughput_of (Throughput.analyse ~options g))

let test_actor_throughput () =
  let g, _, b, _ = Tgraphs.figure2 () in
  let result = Throughput.analyse g in
  check rational "B fires 2 per 10" (Rational.make 2 10 |> fun r -> r)
    (Throughput.actor_throughput g result b)

(* --- Buffers --------------------------------------------------------------- *)

let test_buffer_lower_bound () =
  let mk p c d =
    {
      Graph.channel_id = 0;
      channel_name = "x";
      source = 0;
      production_rate = p;
      target = 1;
      consumption_rate = c;
      initial_tokens = d;
      token_size = 4;
    }
  in
  check int "2,3,0" 4 (Buffers.lower_bound (mk 2 3 0));
  check int "1,1,0" 1 (Buffers.lower_bound (mk 1 1 0));
  check int "2,2,1" 3 (Buffers.lower_bound (mk 2 2 1));
  check int "init dominates" 9 (Buffers.lower_bound (mk 1 1 9))

let test_add_capacity () =
  let g, _ = Tgraphs.pipeline ~times:[ 1; 1 ] in
  let g' = Buffers.add_capacity g 0 ~capacity:2 in
  check int "one more channel" 2 (Graph.channel_count g');
  let space = Graph.channel g' 1 in
  check string "space name" "c0_1__space" space.channel_name;
  check int "space tokens" 2 space.initial_tokens;
  check bool "still deadlock free" true (Analysis.is_deadlock_free g');
  Alcotest.check_raises "capacity below initials"
    (Invalid_argument
       "Buffers.add_capacity: capacity 0 below 1 initial tokens of \"bwd\"")
    (fun () ->
      let g, _, _ = Tgraphs.two_cycle ~time_a:1 ~time_b:1 ~tokens:1 in
      ignore (Buffers.add_capacity g 1 ~capacity:0))

let test_capacity_throttles () =
  (* Capacity 1 fully serializes producer and consumer: the space token only
     returns when the consumer *finishes*, so the period is 1 + 10. With
     capacity 2 the stages pipeline and the slow stage dominates. *)
  let g, _ = Tgraphs.pipeline ~times:[ 1; 10 ] in
  let serialized = Buffers.add_capacity g 0 ~capacity:1 in
  check rational "capacity 1 serializes" (Rational.make 1 11)
    (throughput_of (Throughput.analyse serialized));
  let pipelined = Buffers.add_capacity g 0 ~capacity:2 in
  check rational "capacity 2 pipelines" (Rational.make 1 10)
    (throughput_of (Throughput.analyse pipelined))

let test_size_for_throughput () =
  let g, _ = Tgraphs.pipeline ~times:[ 2; 4; 3 ] in
  match Buffers.size_for_throughput g ~target:(Rational.make 1 4) with
  | None -> Alcotest.fail "sizing failed"
  | Some { capacities; achieved; _ } ->
      check bool "achieved" true
        (Rational.compare (throughput_of achieved) (Rational.make 1 4) >= 0);
      Array.iteri
        (fun i c ->
          if i < Graph.channel_count g then
            check bool "capacity positive" true (c >= 1))
        capacities

let test_trade_off_curve () =
  let g, _ = Tgraphs.pipeline ~times:[ 1; 10 ] in
  let points = Buffers.trade_off g in
  check bool "at least two points" true (List.length points >= 2);
  (* monotone: more storage never hurts throughput *)
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        a.Buffers.total_tokens < b.Buffers.total_tokens
        && Rational.compare a.Buffers.point_throughput
             b.Buffers.point_throughput
           < 0
        && monotone rest
    | _ -> true
  in
  check bool "strictly improving" true (monotone points);
  (* the curve starts at the serialized rate and reaches the pipelined one *)
  let first = List.hd points in
  let last = List.nth points (List.length points - 1) in
  check rational "first point fully serialized" (Rational.make 1 11)
    first.Buffers.point_throughput;
  check rational "last point fully pipelined" (Rational.make 1 10)
    last.Buffers.point_throughput

let test_size_for_throughput_impossible () =
  let g, _ = Tgraphs.pipeline ~times:[ 2; 10 ] in
  (* the slow stage alone caps throughput at 1/10 *)
  check bool "impossible target" true
    (Buffers.size_for_throughput ~max_rounds:10 g ~target:(Rational.make 1 5)
    = None)

(* --- Schedule --------------------------------------------------------------- *)

let test_list_schedule_order () =
  let g, a, b, c = Tgraphs.figure2 () in
  match Schedule.list_schedule g ~binding:(fun _ -> Some "pe0") with
  | Error _ -> Alcotest.fail "schedule failed"
  | Ok [ r ] ->
      check string "resource" "pe0" r.resource_name;
      check (Alcotest.array int) "order" [| a; b; b; c |] r.static_order;
      (match Schedule.validate g [ r ] with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      check int "entries" 4 (Schedule.total_entries [ r ])
  | Ok other -> Alcotest.failf "expected 1 resource, got %d" (List.length other)

let test_list_schedule_two_resources () =
  let g, a, b, c = Tgraphs.figure2 () in
  let binding aid =
    if aid = a then Some "pe0"
    else if aid = b || aid = c then Some "pe1"
    else None
  in
  match Schedule.list_schedule g ~binding with
  | Error _ -> Alcotest.fail "schedule failed"
  | Ok resources ->
      check int "two resources" 2 (List.length resources);
      match Schedule.validate g resources with
      | Ok () -> ()
      | Error e -> Alcotest.fail e

let test_list_schedule_deadlock () =
  let g, _, _ = Tgraphs.two_cycle ~time_a:1 ~time_b:1 ~tokens:0 in
  match Schedule.list_schedule g ~binding:(fun _ -> Some "pe0") with
  | Error (Schedule.Schedule_deadlock _) -> ()
  | _ -> Alcotest.fail "expected schedule deadlock"

let test_schedule_validate_mismatch () =
  let g, a, _, _ = Tgraphs.figure2 () in
  let bogus =
    [ { Execution.resource_name = "pe0"; static_order = [| a; a |] } ]
  in
  match Schedule.validate g bogus with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected validation error"

(* --- Transform --------------------------------------------------------------- *)

let test_constrain_auto_concurrency () =
  let g, _ = Tgraphs.pipeline ~times:[ 1; 1 ] in
  let g' = Transform.constrain_auto_concurrency g ~degree:1 in
  check int "two self loops added" 3 (Graph.channel_count g');
  (* now unbounded engine concurrency matches the structural bound *)
  let options = { Execution.default_options with auto_concurrency = None } in
  let a_self = Graph.find_channel g' "p0__self" in
  check bool "self channel exists" true (a_self <> None);
  let outcome = Execution.run ~options g' ~iterations:2 in
  check bool "finished" true (outcome.stop = Execution.Finished)

let test_scale_execution_times () =
  let g, _, _, _ = Tgraphs.figure2 () in
  let g' = Transform.scale_execution_times g ~num:3 ~den:2 in
  check int "A scaled up" 15 (Graph.actor_of_name g' "A").execution_time;
  check int "B rounds up" 6 (Graph.actor_of_name g' "B").execution_time

let test_merge () =
  let g1, _ = Tgraphs.pipeline ~times:[ 1; 2 ] in
  let g2, _, _ = Tgraphs.two_cycle ~time_a:3 ~time_b:4 ~tokens:1 in
  let merged, translate = Transform.merge g1 g2 in
  check int "actors" 4 (Graph.actor_count merged);
  check int "channels" 3 (Graph.channel_count merged);
  check string "translated actor" "A" (Graph.actor merged (translate 0)).actor_name

(* Regression: merging graphs with overlapping names used to raise
   [Graph.add_actor: duplicate actor name]; clashes now auto-disambiguate
   with the shared "~n" suffix machinery. *)
let test_merge_name_clash () =
  let g, _ = Tgraphs.pipeline ~times:[ 1; 2 ] in
  let merged, translate = Transform.merge g g in
  check int "actors doubled" 4 (Graph.actor_count merged);
  check int "channels doubled" 2 (Graph.channel_count merged);
  check string "original keeps its name" "p0" (Graph.actor merged 0).actor_name;
  check string "clash suffixed" "p0~1"
    (Graph.actor merged (translate 0)).actor_name;
  (match Graph.validate merged with
  | Ok () -> ()
  | Error e -> Alcotest.failf "merged graph invalid: %s" e);
  (* triple merge exercises suffix-on-suffix clashes *)
  let merged2, _ = Transform.merge merged g in
  check int "triple merge" 6 (Graph.actor_count merged2);
  match Graph.validate merged2 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "triple merge invalid: %s" e

let test_uniquify () =
  let taken n = List.mem n [ "x"; "x~1"; "x~2" ] in
  check string "free name untouched" "y" (Transform.uniquify ~taken "y");
  check string "first free suffix" "x~3" (Transform.uniquify ~taken "x")

(* --- HSDF expansion and MCM ------------------------------------------------ *)

let expand_exn ?options ?max_instances g =
  match Hsdf.expand ?options ?max_instances g with
  | Ok h -> h
  | Error e -> Alcotest.failf "expand: %a" Hsdf.pp_error e

let test_hsdf_figure2 () =
  let g, a, b, c = Tgraphs.figure2 () in
  let h = expand_exn g in
  check int "one instance per firing" 4 (Graph.actor_count h.Hsdf.graph);
  check (Alcotest.array int) "repetition" [| 1; 2; 1 |] h.Hsdf.repetition;
  check int "B instances start" 1 h.Hsdf.first_instance.(b);
  check string "instance label" "B#1" (Hsdf.instance_label h 2);
  check bool "provenance" true
    (h.Hsdf.instances.(2) = { Hsdf.original = b; index = 1 });
  check bool "homogeneous" true
    (List.for_all
       (fun (c : Graph.channel) ->
         c.production_rate = 1 && c.consumption_rate = 1)
       (Graph.channels h.Hsdf.graph));
  (match Graph.validate h.Hsdf.graph with
  | Ok () -> ()
  | Error e -> Alcotest.failf "expansion invalid: %s" e);
  ignore a;
  ignore c

let test_hsdf_rejections () =
  let inconsistent = Graph.empty "bad" in
  let inconsistent, a = Graph.add_actor inconsistent ~name:"A" ~execution_time:1 in
  let inconsistent, b = Graph.add_actor inconsistent ~name:"B" ~execution_time:1 in
  let inconsistent, _ =
    Graph.add_channel inconsistent ~name:"fwd" ~source:a ~production_rate:1
      ~target:b ~consumption_rate:1 ()
  in
  let inconsistent, _ =
    Graph.add_channel inconsistent ~name:"bwd" ~source:b ~production_rate:2
      ~target:a ~consumption_rate:1 ()
  in
  (match Hsdf.expand inconsistent with
  | Error (Hsdf.Inconsistent _) -> ()
  | _ -> Alcotest.fail "expected Inconsistent");
  let g, fa, _, _ = Tgraphs.figure2 () in
  (match Hsdf.expand ~max_instances:1 g with
  | Error (Hsdf.Too_large { limit = 1; _ }) -> ()
  | _ -> Alcotest.fail "expected Too_large");
  let closures =
    {
      Execution.default_options with
      Execution.firing_time = Some (fun x -> x.Graph.execution_time);
    }
  in
  (match Hsdf.supported ~options:closures g with
  | Error (Hsdf.Unsupported _) -> ()
  | _ -> Alcotest.fail "expected Unsupported for closures");
  (* a static order that is not one iteration per pass cannot be encoded *)
  let skewed =
    {
      Execution.default_options with
      Execution.resources =
        [ { Execution.resource_name = "pe0"; static_order = [| fa; fa |] } ];
    }
  in
  (match Hsdf.supported ~options:skewed g with
  | Error (Hsdf.Unsupported _) -> ()
  | _ -> Alcotest.fail "expected Unsupported for skewed order");
  (* Ok from the precheck must imply the expansion succeeds *)
  match (Hsdf.supported g, Hsdf.expand g) with
  | Ok (), Ok _ -> ()
  | _ -> Alcotest.fail "supported and expand disagree"

let test_mcm_two_cycle () =
  let g, a, b = Tgraphs.two_cycle ~time_a:2 ~time_b:3 ~tokens:1 in
  (match Mcm.max_cycle_ratio g with
  | Mcm.Ratio { lambda; critical } ->
      check rational "lambda = 5/1" (Rational.of_int 5) lambda;
      check int "cycle time" 5 critical.Mcm.cycle_time;
      check int "cycle tokens" 1 critical.Mcm.cycle_tokens;
      check (Alcotest.list int) "cycle actors" [ a; b ]
        (List.sort compare critical.Mcm.cycle_actors)
  | _ -> Alcotest.fail "expected a ratio");
  let g, _, _ = Tgraphs.two_cycle ~time_a:2 ~time_b:3 ~tokens:2 in
  match Mcm.max_cycle_ratio g with
  | Mcm.Ratio { lambda; _ } -> check rational "lambda = 5/2" (Rational.make 5 2) lambda
  | _ -> Alcotest.fail "expected a ratio"

let test_mcm_deadlock_and_acyclic () =
  let g, _, _ = Tgraphs.two_cycle ~time_a:1 ~time_b:1 ~tokens:0 in
  (match Mcm.max_cycle_ratio g with
  | Mcm.Deadlock { cycle_tokens = 0; cycle_actors; _ } ->
      check int "cycle length" 2 (List.length cycle_actors)
  | _ -> Alcotest.fail "expected deadlock");
  let p, _ = Tgraphs.pipeline ~times:[ 1; 2; 3 ] in
  match Mcm.max_cycle_ratio p with
  | Mcm.Acyclic -> ()
  | _ -> Alcotest.fail "expected acyclic"

let test_mcm_picks_critical_cycle () =
  (* inner self-loop (10/1) beats the outer cycle (12/2) *)
  let g = Graph.empty "nested" in
  let g, a = Graph.add_actor g ~name:"A" ~execution_time:2 in
  let g, b = Graph.add_actor g ~name:"B" ~execution_time:10 in
  let g, _ =
    Graph.add_channel g ~name:"fwd" ~source:a ~production_rate:1 ~target:b
      ~consumption_rate:1 ()
  in
  let g, _ =
    Graph.add_channel g ~name:"bwd" ~source:b ~production_rate:1 ~target:a
      ~consumption_rate:1 ~initial_tokens:2 ()
  in
  let g, _ =
    Graph.add_channel g ~name:"state" ~source:b ~production_rate:1 ~target:b
      ~consumption_rate:1 ~initial_tokens:1 ()
  in
  match Mcm.max_cycle_ratio g with
  | Mcm.Ratio { lambda; critical } ->
      check rational "lambda = 10" (Rational.of_int 10) lambda;
      check (Alcotest.list int) "critical is the self-loop" [ b ]
        critical.Mcm.cycle_actors
  | _ -> Alcotest.fail "expected a ratio"

let agree_methods ?options name g =
  let ss = Throughput.analyse ?options g in
  let mcm = Throughput.analyse ?options ~method_:`Mcm g in
  match (ss, mcm) with
  | ( Throughput.Throughput { throughput = t1; _ },
      Throughput.Throughput { throughput = t2; _ } ) ->
      check rational name t1 t2
  | Throughput.Deadlocked _, Throughput.Deadlocked _ -> ()
  | _ ->
      Alcotest.failf "%s: state space %a, mcm %a" name Throughput.pp_result ss
        Throughput.pp_result mcm

let test_methods_agree_fixtures () =
  let g, _, _, _ = Tgraphs.figure2 () in
  agree_methods "figure2" g;
  List.iter
    (fun tokens ->
      let g, _, _ = Tgraphs.two_cycle ~time_a:2 ~time_b:3 ~tokens in
      agree_methods (Printf.sprintf "two_cycle %d" tokens) g)
    [ 0; 1; 2; 5 ];
  let p, _ = Tgraphs.pipeline ~times:[ 1; 10 ] in
  agree_methods "serialized pipeline" (Buffers.add_capacity p 0 ~capacity:1);
  agree_methods "pipelined pipeline" (Buffers.add_capacity p 0 ~capacity:2)

let test_methods_agree_mapped () =
  (* the mapped shape: every actor bound, auto-concurrency off, the static
     order serializing the tile — MCM must reproduce 1/24 exactly *)
  let g, a, b, c = Tgraphs.figure2 () in
  let binding aid = if aid = a || aid = b || aid = c then Some "pe0" else None in
  match Schedule.list_schedule g ~binding with
  | Error _ -> Alcotest.fail "schedule failed"
  | Ok resources ->
      let options = { Execution.default_options with resources } in
      agree_methods "single-tile figure2" ~options g;
      check rational "mcm value is 1/24" (Rational.make 1 24)
        (throughput_of (Throughput.analyse ~options ~method_:`Mcm g));
      let unbounded =
        {
          Execution.default_options with
          auto_concurrency = None;
          resources;
        }
      in
      agree_methods "bound actors, no auto-concurrency" ~options:unbounded g;
      (* split across two resources; the inter-tile buffers must be bounded
         or the state space never recurs (tokens pile up at the slow tile)
         while MCM still reports the steady-state rate *)
      let bounded =
        List.fold_left
          (fun g' cid -> Buffers.add_capacity g' cid ~capacity:4)
          g
          (List.filter_map
             (fun (c : Graph.channel) ->
               if c.source = c.target then None else Some c.channel_id)
             (Graph.channels g))
      in
      let binding2 aid = if aid = a then Some "pe0" else Some "pe1" in
      (match Schedule.list_schedule bounded ~binding:binding2 with
      | Error _ -> Alcotest.fail "schedule 2 failed"
      | Ok resources2 ->
          agree_methods "two-tile figure2"
            ~options:{ Execution.default_options with resources = resources2 }
            bounded);
      (* higher auto-concurrency degrees *)
      let g2, _, _ = Tgraphs.two_cycle ~time_a:2 ~time_b:3 ~tokens:5 in
      agree_methods "auto-concurrency 2"
        ~options:{ Execution.default_options with auto_concurrency = Some 2 }
        g2

let test_methods_memo_agree () =
  let g, _, _ = Tgraphs.two_cycle ~time_a:7 ~time_b:11 ~tokens:2 in
  let ss = Throughput.analyse g in
  let m1 = Throughput.analyse_memo ~method_:`Mcm g in
  let m2 = Throughput.analyse_memo ~method_:`Mcm g in
  let auto = Throughput.analyse_memo ~method_:`Auto g in
  check bool "mcm memo stable" true (m1 = m2);
  check bool "auto resolves to the same entry" true (m1 = auto);
  check rational "memoized mcm equals state space" (throughput_of ss)
    (throughput_of m1);
  (* the state-space entry is distinct: both can live in the cache *)
  let ss_memo = Throughput.analyse_memo g in
  check bool "state-space result unchanged by mcm entries" true (ss = ss_memo)

let test_mcm_counters () =
  let g, _, _ = Tgraphs.two_cycle ~time_a:2 ~time_b:3 ~tokens:1 in
  let before = Throughput.mcm_stats () in
  ignore (Throughput.analyse ~method_:`Mcm g);
  let mid = Throughput.mcm_stats () in
  check bool "a supported mcm analysis counts as a run" true
    (mid.Throughput.runs > before.Throughput.runs);
  let closures =
    {
      Execution.default_options with
      Execution.firing_time = Some (fun x -> x.Graph.execution_time);
    }
  in
  ignore (Throughput.analyse ~options:closures ~method_:`Mcm g);
  let after = Throughput.mcm_stats () in
  check bool "an unsupported request counts as a fallback" true
    (after.Throughput.fallbacks > mid.Throughput.fallbacks)

(* --- Dot / Xml ---------------------------------------------------------------- *)

let test_dot_output () =
  let g, a, _, _ = Tgraphs.figure2 () in
  let dot = Dot.to_string ~highlight:[ a ] g in
  check bool "digraph" true
    (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  let contains needle haystack =
    let n = String.length needle in
    let rec scan i =
      i + n <= String.length haystack
      && (String.sub haystack i n = needle || scan (i + 1))
    in
    scan 0
  in
  check bool "edge present" true (contains "a0 -> a1" dot);
  check bool "highlight" true (contains "fillcolor" dot);
  check bool "initial tokens" true (contains "label=\"1\"" dot)

let contains needle haystack =
  let n = String.length needle in
  let rec scan i =
    i + n <= String.length haystack
    && (String.sub haystack i n = needle || scan (i + 1))
  in
  scan 0

let test_hsdf_dot_output () =
  let g, _, _, _ = Tgraphs.figure2 () in
  let h = expand_exn g in
  let critical =
    match Mcm.max_cycle_ratio h.Hsdf.graph with
    | Mcm.Ratio { critical; _ } -> critical.Mcm.cycle_actors
    | _ -> Alcotest.fail "expected a ratio on the expansion"
  in
  let dot = Dot.hsdf_to_string ~critical h in
  check bool "digraph" true (contains "digraph" dot);
  check bool "one cluster per original actor" true
    (contains "cluster_0" dot && contains "cluster_2" dot);
  check bool "instance labels" true (contains "B#1" dot);
  check bool "critical cycle highlighted" true
    (contains "color=red, penwidth=2" dot && contains "fillcolor=lightpink" dot);
  (* without a critical cycle there is no highlight *)
  let plain = Dot.hsdf_to_string h in
  check bool "no highlight by default" false (contains "color=red" plain)

let graphs_structurally_equal g1 g2 =
  Graph.name g1 = Graph.name g2
  && Graph.actors g1 = Graph.actors g2
  && Graph.channels g1 = Graph.channels g2

let test_xml_roundtrip () =
  let g, _, _, _ = Tgraphs.figure2 () in
  match Xmlio.of_string (Xmlio.to_string g) with
  | Ok g' -> check bool "roundtrip" true (graphs_structurally_equal g g')
  | Error e -> Alcotest.fail e

let test_xml_errors () =
  (match Xmlio.of_string "<wrong/>" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted wrong root");
  match
    Xmlio.of_string
      "<sdfgraph name=\"g\"><channel name=\"c\" src=\"A\" dst=\"B\" \
       prodRate=\"1\" consRate=\"1\"/></sdfgraph>"
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted dangling channel"

(* --- QCheck property suites ------------------------------------------------ *)

(* Fire every actor exactly its repetition count, untimed, and verify the
   channel state returns to the initial marking: the defining property of a
   graph iteration. *)
let one_iteration_returns_marking (rg : Tgraphs.random_graph) =
  let g = rg.graph in
  let q = Repetition.vector_exn g in
  let tokens = Array.make (Graph.channel_count g) 0 in
  List.iter
    (fun (c : Graph.channel) -> tokens.(c.channel_id) <- c.initial_tokens)
    (Graph.channels g);
  let initial = Array.copy tokens in
  let remaining = Array.copy q in
  let n = Graph.actor_count g in
  let ready a =
    remaining.(a) > 0
    && List.for_all
         (fun (c : Graph.channel) ->
           tokens.(c.channel_id) >= c.consumption_rate)
         (Graph.incoming g a)
  in
  let fire a =
    List.iter
      (fun (c : Graph.channel) ->
        tokens.(c.channel_id) <- tokens.(c.channel_id) - c.consumption_rate)
      (Graph.incoming g a);
    List.iter
      (fun (c : Graph.channel) ->
        tokens.(c.channel_id) <- tokens.(c.channel_id) + c.production_rate)
      (Graph.outgoing g a);
    remaining.(a) <- remaining.(a) - 1
  in
  let rec loop () =
    match List.find_opt ready (List.init n Fun.id) with
    | Some a ->
        fire a;
        loop ()
    | None -> ()
  in
  loop ();
  Array.for_all (fun r -> r = 0) remaining && tokens = initial

module Workload = Gen.Workload

(* The flat analysis path ([Hsdf.expand_csr] into [Mcm.max_cycle_ratio_csr])
   must return exactly what the graph path returns, witness cycle included. *)
let csr_path_agrees ~options g =
  let outcome f = match f () with o -> Ok o | exception Mcm.Diverged -> Error () in
  match (Hsdf.expand ~options g, Hsdf.expand_csr ~options g) with
  | Ok h, Ok c ->
      outcome (fun () -> Mcm.max_cycle_ratio h.Hsdf.graph)
      = outcome (fun () -> Mcm.max_cycle_ratio_csr c)
  | Error e1, Error e2 -> e1 = e2
  | Ok _, Error _ | Error _, Ok _ -> false

(* [check] under every auto-concurrency degree, and mapped onto two
   resources with static orders *)
let everywhere check g =
  List.for_all
    (fun auto_concurrency ->
      check ~options:{ Execution.default_options with auto_concurrency } g)
    [ None; Some 1; Some 2 ]
  &&
  let binding aid = Some (Printf.sprintf "pe%d" (aid mod 2)) in
  match Schedule.list_schedule g ~binding with
  | Error _ -> false
  | Ok resources ->
      check ~options:{ Execution.default_options with resources } g

let csr_path_agrees_everywhere = everywhere csr_path_agrees

(* --- reference Howard --------------------------------------------------- *)

(* Howard's policy iteration without the incremental phase-2 walk, as an
   independent reference: every improvement re-walks every member and
   re-scans every intra-component edge. The zero-token cycle search and
   Tarjan's components visit in [Mcm]'s order, in recursive form.
   [Mcm.max_cycle_ratio_csr] must match it exactly, ratio and ordered
   witness. *)
module Reference_howard = struct
  open Mcm

  exception Found of int list

  (* the edge positions of [u]'s row *)
  let row (c : csr) u =
    List.init (c.row.(u + 1) - c.row.(u)) (fun k -> c.row.(u) + k)

  let zero_cycle (c : csr) =
    let n = Array.length c.time in
    let color = Array.make n 0 in
    (* [grey] is the grey path, latest first, [u] at its head *)
    let rec visit grey u =
      color.(u) <- 1;
      for i = c.row.(u) to c.row.(u + 1) - 1 do
        if c.tokens.(i) = 0 then begin
          let v = c.succ.(i) in
          if color.(v) = 0 then visit (v :: grey) v
          else if color.(v) = 1 then begin
            let rec upto acc = function
              | w :: rest -> if w = v then w :: acc else upto (w :: acc) rest
              | [] -> acc
            in
            raise (Found (upto [] grey))
          end
        end
      done;
      color.(u) <- 2
    in
    try
      for r = 0 to n - 1 do
        if color.(r) = 0 then visit [ r ] r
      done;
      None
    with Found cycle -> Some cycle

  (* component ids in order of completion *)
  let components (c : csr) =
    let n = Array.length c.time in
    let index = Array.make n (-1) and low = Array.make n 0 in
    let on_stack = Array.make n false and comp = Array.make n 0 in
    let stack = ref [] and counter = ref 0 and ncomp = ref 0 in
    let rec connect u =
      index.(u) <- !counter;
      low.(u) <- !counter;
      incr counter;
      stack := u :: !stack;
      on_stack.(u) <- true;
      for i = c.row.(u) to c.row.(u + 1) - 1 do
        let v = c.succ.(i) in
        if index.(v) < 0 then begin
          connect v;
          low.(u) <- min low.(u) low.(v)
        end
        else if on_stack.(v) then low.(u) <- min low.(u) index.(v)
      done;
      if low.(u) = index.(u) then begin
        let rec pop () =
          match !stack with
          | v :: rest ->
              stack := rest;
              on_stack.(v) <- false;
              comp.(v) <- !ncomp;
              if v <> u then pop ()
          | [] -> assert false
        in
        pop ();
        incr ncomp
      end
    in
    for u = 0 to n - 1 do
      if index.(u) < 0 then connect u
    done;
    (comp, !ncomp)

  (* Howard on the component [members] (increasing ids): the policy walk,
     the two-phase improvement and the certificate *)
  let howard (c : csr) comp members =
    let n = Array.length c.time and time = c.time in
    let edges u =
      List.filter (fun i -> comp.(c.succ.(i)) = comp.(u)) (row c u)
    in
    let out = Array.make n [] in
    List.iter (fun u -> out.(u) <- edges u) members;
    let lam_num = Array.make n 0 and lam_den = Array.make n 1 in
    let x = Array.make n 0 and pol_dst = Array.make n 0 in
    let pol_w = Array.make n 0 and state = Array.make n 0 in
    let size = List.length members in
    let sum_t = ref 0 and sum_w = ref 0 and tmax = ref 0 and wmax = ref 0 in
    List.iter
      (fun u ->
        match out.(u) with
        | [] -> raise Diverged
        | i :: _ ->
            pol_dst.(u) <- c.succ.(i);
            pol_w.(u) <- c.tokens.(i);
            sum_t := !sum_t + time.(u);
            tmax := max !tmax time.(u);
            List.iter
              (fun i ->
                sum_w := !sum_w + c.tokens.(i);
                wmax := max !wmax c.tokens.(i))
              out.(u))
      members;
    let bound =
      float_of_int size
      *. ((float_of_int !sum_w *. float_of_int !tmax)
         +. (float_of_int !sum_t *. float_of_int (max 1 !wmax)))
    in
    if bound > 4.0e18 then raise Diverged;
    let cycles = ref 0 and w_root = ref 0 in
    let settle v num den =
      lam_num.(v) <- num;
      lam_den.(v) <- den;
      x.(v) <- (den * time.(v)) - (num * pol_w.(v)) + x.(pol_dst.(v))
    in
    let value_determination () =
      List.iter (fun u -> state.(u) <- 0) members;
      cycles := 0;
      List.iter
        (fun u0 ->
          if state.(u0) = 0 then begin
            (* the walk, latest first *)
            let rec walk path u =
              if state.(u) = 0 then begin
                state.(u) <- 1;
                walk (u :: path) pol_dst.(u)
              end
              else (path, u)
            in
            let path, root = walk [] u0 in
            if state.(root) = 1 then begin
              let rec on_cycle acc = function
                | v :: rest ->
                    if v = root then v :: acc else on_cycle (v :: acc) rest
                | [] -> acc
              in
              let cycle = on_cycle [] path in
              let ct = List.fold_left (fun a v -> a + time.(v)) 0 cycle in
              let cw = List.fold_left (fun a v -> a + pol_w.(v)) 0 cycle in
              if cw <= 0 then raise Diverged;
              let g = Rational.gcd_int ct cw in
              if !cycles = 0 then w_root := root;
              incr cycles;
              lam_num.(root) <- ct / g;
              lam_den.(root) <- cw / g;
              x.(root) <- 0;
              state.(root) <- 2;
              List.iter
                (fun v ->
                  if v <> root then begin
                    settle v (ct / g) (cw / g);
                    state.(v) <- 2
                  end)
                (List.rev cycle)
            end;
            List.iter
              (fun v ->
                if state.(v) = 1 then begin
                  let s = pol_dst.(v) in
                  settle v lam_num.(s) lam_den.(s);
                  state.(v) <- 2
                end)
              path
          end)
        members
    in
    let switch u i =
      pol_dst.(u) <- c.succ.(i);
      pol_w.(u) <- c.tokens.(i)
    in
    let improve () =
      let changed = ref false in
      if !cycles > 1 then
        List.iter
          (fun u ->
            let bn = ref lam_num.(u) and bd = ref lam_den.(u) in
            let best = ref (-1) in
            List.iter
              (fun i ->
                let v = c.succ.(i) in
                if lam_num.(v) * !bd > !bn * lam_den.(v) then begin
                  bn := lam_num.(v);
                  bd := lam_den.(v);
                  best := i
                end)
              out.(u);
            if !best >= 0 then begin
              switch u !best;
              changed := true
            end)
          members;
      if not !changed then
        List.iter
          (fun u ->
            let num = lam_num.(u) and den = lam_den.(u) in
            let best = ref x.(u) and best_i = ref (-1) in
            List.iter
              (fun i ->
                let v = c.succ.(i) in
                if lam_num.(v) = num && lam_den.(v) = den then begin
                  let value = (den * time.(u)) - (num * c.tokens.(i)) + x.(v) in
                  if value > !best then begin
                    best := value;
                    best_i := i
                  end
                end)
              out.(u);
            if !best_i >= 0 then begin
              switch u !best_i;
              changed := true
            end)
          members;
      !changed
    in
    let max_iterations = 1000 + (10 * size) in
    value_determination ();
    let iterations = ref 0 in
    while improve () do
      incr iterations;
      if !iterations > max_iterations then raise Diverged;
      value_determination ()
    done;
    let head = List.hd members in
    let num = lam_num.(head) and den = lam_den.(head) in
    List.iter
      (fun u ->
        if lam_num.(u) <> num || lam_den.(u) <> den then raise Diverged;
        List.iter
          (fun i ->
            if x.(u) < (den * time.(u)) - (num * c.tokens.(i)) + x.(c.succ.(i))
            then raise Diverged)
          out.(u))
      members;
    let rec spell v acc =
      let acc = v :: acc in
      if pol_dst.(v) = !w_root then List.rev acc else spell pol_dst.(v) acc
    in
    let actors = spell !w_root [] in
    ( Rational.make num den,
      {
        cycle_actors = actors;
        cycle_time = List.fold_left (fun a v -> a + time.(v)) 0 actors;
        cycle_tokens = List.fold_left (fun a v -> a + pol_w.(v)) 0 actors;
      } )

  let max_cycle_ratio (c : csr) =
    let n = Array.length c.time in
    if n = 0 then Acyclic
    else
      match zero_cycle c with
      | Some actors ->
          Deadlock
            {
              cycle_actors = actors;
              cycle_time = List.fold_left (fun a v -> a + c.time.(v)) 0 actors;
              cycle_tokens = 0;
            }
      | None ->
          let comp, ncomp = components c in
          let members_of = Array.make ncomp [] in
          for u = n - 1 downto 0 do
            members_of.(comp.(u)) <- u :: members_of.(comp.(u))
          done;
          let best = ref None in
          for ci = 0 to ncomp - 1 do
            let members = members_of.(ci) in
            let cyclic =
              match members with
              | [ u ] -> List.exists (fun i -> c.succ.(i) = u) (row c u)
              | _ -> true
            in
            if cyclic then begin
              let lambda, witness = howard c comp members in
              match !best with
              | Some (l, _) when Rational.compare lambda l <= 0 -> ()
              | _ -> best := Some (lambda, witness)
            end
          done;
          match !best with
          | None -> Acyclic
          | Some (lambda, critical) -> Ratio { lambda; critical }
end

(* [Mcm.max_cycle_ratio_csr] returns the reference's outcome, or both
   diverge *)
let matches_reference c =
  let outcome f =
    match f c with o -> Ok o | exception Mcm.Diverged -> Error ()
  in
  outcome Mcm.max_cycle_ratio_csr = outcome Reference_howard.max_cycle_ratio

let expansion_matches_reference ~options g =
  match Hsdf.expand_csr ~options g with
  | Ok c -> matches_reference c
  | Error _ -> true

(* raw dependency graphs: execution times and (source, target, tokens)
   edges, parallel edges and zero-token edges included *)
let raw_edges_arbitrary =
  let open QCheck in
  let gen =
    Gen.(
      let* n = int_range 1 10 in
      let* time = array_size (return n) (int_range 0 9) in
      let tokens = frequency [ (1, return 0); (4, int_range 1 3) ] in
      (* half of them strongly connected by a ring through every node *)
      let* ring = bool in
      let* ring =
        if ring then
          flatten_l
            (List.init n (fun u -> map (fun w -> (u, (u + 1) mod n, w)) tokens))
        else return []
      in
      let* edges =
        list_size (int_range 0 (3 * n))
          (triple (int_bound (n - 1)) (int_bound (n - 1)) tokens)
      in
      return (time, ring @ edges))
  in
  let print (time, edges) =
    Printf.sprintf "times [%s] edges [%s]"
      (String.concat ";" (Array.to_list (Array.map string_of_int time)))
      (String.concat ";"
         (List.map (fun (s, d, w) -> Printf.sprintf "%d->%d/%d" s d w) edges))
  in
  make ~print gen

let raw_csr (time, edges) =
  let field f = Array.of_list (List.map f edges) in
  Mcm.csr_of_edges ~time
    ~src:(field (fun (s, _, _) -> s))
    ~dst:(field (fun (_, d, _) -> d))
    ~tokens:(field (fun (_, _, w) -> w))
    (List.length edges)

let sdf_props =
  let open QCheck in
  [
    Test.make ~count:100 ~name:"repetition vector matches construction"
      Tgraphs.random_graph_arbitrary
      (fun rg -> Repetition.vector_exn rg.graph = rg.expected_repetition);
    Test.make ~count:100 ~name:"one iteration returns the initial marking"
      Tgraphs.random_graph_arbitrary one_iteration_returns_marking;
    Test.make ~count:100 ~name:"random graphs are deadlock free"
      Tgraphs.random_graph_arbitrary
      (fun rg -> Execution.deadlock_free rg.graph);
    Test.make ~count:50 ~name:"bounded graphs have positive throughput"
      Tgraphs.random_graph_arbitrary
      (fun rg ->
        match Throughput.analyse (Tgraphs.bounded rg) with
        | Throughput.Throughput { throughput; _ } ->
            Rational.sign throughput > 0
        | _ -> false);
    Test.make ~count:50 ~name:"scaling times by k divides throughput by k"
      Tgraphs.random_graph_arbitrary
      (fun rg ->
        let b = Tgraphs.bounded rg in
        let scaled = Transform.scale_execution_times b ~num:3 ~den:1 in
        match (Throughput.analyse b, Throughput.analyse scaled) with
        | ( Throughput.Throughput { throughput = t1; _ },
            Throughput.Throughput { throughput = t2; _ } ) ->
            Rational.equal t1 (Rational.mul t2 (Rational.of_int 3))
        | _ -> false);
    Test.make ~count:50
      ~name:"shorter execution times never delay an iteration (monotonic)"
      Tgraphs.random_graph_arbitrary
      (fun rg ->
        let b = Tgraphs.bounded rg in
        let reduce (a : Graph.actor) =
          Stdlib.max 0 (a.execution_time - (a.actor_id mod 3))
        in
        let wcet = Execution.run b ~iterations:5 in
        let faster =
          Execution.run
            ~options:
              { Execution.default_options with firing_time = Some reduce }
            b ~iterations:5
        in
        wcet.stop <> Execution.Finished
        || (faster.stop = Execution.Finished
           && faster.end_time <= wcet.end_time));
    Test.make ~count:100 ~name:"xml round trip preserves the graph"
      Tgraphs.random_graph_arbitrary
      (fun rg ->
        match Xmlio.of_string (Xmlio.to_string rg.graph) with
        | Ok g' -> graphs_structurally_equal rg.graph g'
        | Error _ -> false);
    Test.make ~count:50
      ~name:"mcm and state space agree exactly on random bounded graphs"
      (pair Tgraphs.random_graph_arbitrary (int_range 0 100_000))
      (fun (rg, seed) ->
        let b = Tgraphs.bounded rg in
        (match
           ( Throughput.analyse b,
             Throughput.analyse ~method_:`Mcm b )
         with
        | ( Throughput.Throughput { throughput = t1; _ },
            Throughput.Throughput { throughput = t2; _ } ) ->
            Rational.equal t1 t2
        | Throughput.Deadlocked _, Throughput.Deadlocked _ -> true
        | _ -> false)
        && csr_path_agrees_everywhere b
        && csr_path_agrees_everywhere
             (Workload.generate ~seed ()).Workload.graph);
    Test.make ~count:1000 ~name:"howard matches the full-walk reference"
      (pair raw_edges_arbitrary (int_range 0 100_000))
      (fun (raw, seed) ->
        matches_reference (raw_csr raw)
        && everywhere expansion_matches_reference
             (Workload.generate ~seed ()).Workload.graph);
  ]

let case_study_csr template scale =
  let g, options = Case_study.round (Case_study.mapping template) scale in
  match Hsdf.expand_csr ~options g with
  | Ok c -> c
  | Error e -> Alcotest.failf "expand_csr: %a" Hsdf.pp_error e

let test_howard_case_study_reference () =
  List.iter
    (fun (name, template) ->
      for scale = 1 to 8 do
        check bool
          (Printf.sprintf "%s scale %d matches the reference" name scale)
          true
          (matches_reference (case_study_csr template scale))
      done)
    [ ("fsl", Case_study.fsl); ("noc", Case_study.noc) ]

let test_howard_polls_budget () =
  let c = case_study_csr Case_study.fsl 1 in
  let expired = Exec.Budget.scope ~deadline:(Exec.Budget.after (-1.0)) () in
  match
    Exec.Budget.with_scope expired (fun () -> Mcm.max_cycle_ratio_csr c)
  with
  | exception Exec.Budget.Expired Exec.Budget.Deadline -> ()
  | _ -> Alcotest.fail "expected Howard to raise Expired"

(* --- structural keys and the analysis memo ----------------------------- *)

let test_structural_key_sensitivity () =
  let g, _, _ = Tgraphs.two_cycle ~time_a:2 ~time_b:3 ~tokens:1 in
  check string "key is deterministic" (Graph.structural_key g)
    (Graph.structural_key g);
  check string "digest is deterministic" (Graph.structural_digest g)
    (Graph.structural_digest g);
  (* semantically irrelevant differences share one key *)
  let renamed = Graph.rename g "other-name" in
  check string "graph name excluded" (Graph.structural_key g)
    (Graph.structural_key renamed);
  (* every semantically relevant field changes the key *)
  let wcet = Graph.with_execution_times g (fun a -> a.Graph.execution_time + 1) in
  check bool "WCET change alters the key" false
    (Graph.structural_key g = Graph.structural_key wcet);
  let g2, _, _ = Tgraphs.two_cycle ~time_a:2 ~time_b:3 ~tokens:2 in
  check bool "initial-token change alters the key" false
    (Graph.structural_key g = Graph.structural_key g2);
  let rates, a, b = Tgraphs.two_cycle ~time_a:2 ~time_b:3 ~tokens:1 in
  let rates, _ =
    Graph.add_channel rates ~name:"extra" ~source:a ~production_rate:2
      ~target:b ~consumption_rate:1 ()
  in
  check bool "extra channel alters the key" false
    (Graph.structural_key g = Graph.structural_key rates)

let test_memo_table_bounds () =
  let m : int Memo.t = Memo.create ~capacity:2 () in
  let computed = ref 0 in
  let get k =
    Memo.find_or_add m k (fun () ->
        incr computed;
        String.length k)
  in
  check int "miss computes" 1 (get "a");
  check int "hit returns the cached value" 1 (get "a");
  check int "compute ran once" 1 !computed;
  ignore (get "bb");
  ignore (get "ccc");
  (* capacity 2: "a" (oldest) was evicted, so it recomputes *)
  ignore (get "a");
  check int "eviction forces recompute" 4 !computed;
  let s = Memo.stats m in
  check int "bounded size" 2 s.Memo.size;
  check bool "eviction counted" true (s.Memo.evictions >= 1);
  check bool "hits and misses counted" true
    (s.Memo.hits >= 1 && s.Memo.misses >= 3);
  Memo.clear m;
  check int "clear empties the table" 0 (Memo.stats m).Memo.size;
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Memo.create: capacity 0 < 1") (fun () ->
      ignore (Memo.create ~capacity:0 () : int Memo.t))

let test_analyse_memo_correctness () =
  let g, _, _ = Tgraphs.two_cycle ~time_a:2 ~time_b:3 ~tokens:1 in
  let renamed = Graph.rename g "same-structure-different-name" in
  let before = Throughput.memo_stats () in
  let direct = Throughput.analyse g in
  let cached = Throughput.analyse_memo g in
  let cached_again = Throughput.analyse_memo g in
  let via_twin = Throughput.analyse_memo renamed in
  check bool "memoized result equals direct analysis" true (direct = cached);
  check bool "hit equals miss" true (cached = cached_again);
  check bool "same structural key shares the result" true (direct = via_twin);
  let after = Throughput.memo_stats () in
  check bool "second and third calls were hits" true
    (after.Memo.hits - before.Memo.hits >= 2);
  (* cache off is a flow option: a mapping with [memo = false] (the CLI's
     --no-memo) causes no cache traffic, also when re-analysed, and
     predicts the same guarantee *)
  let app = (Gen.Workload.generate ~seed:11 ()).Gen.Workload.application in
  let platform =
    match
      Arch.Template.for_application app ~max_tiles:2
        (Arch.Template.Use_fsl Arch.Fsl.default)
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let map memo =
    match
      Mapping.Flow_map.run app platform
        ~options:{ Mapping.Flow_map.default_options with memo }
        ()
    with
    | Ok m -> m
    | Error e -> Alcotest.fail (Mapping.Flow_map.error_to_string e)
  in
  let cached = map true in
  let s0 = Throughput.memo_stats () in
  let off = map false in
  let reanalysed =
    Mapping.Flow_map.reanalyse off
      ~times:(fun name ->
        (Graph.actor_of_name off.Mapping.Flow_map.timed_graph name)
          .execution_time)
      ()
  in
  let s1 = Throughput.memo_stats () in
  check int "cache-off adds no hits" s0.Memo.hits s1.Memo.hits;
  check int "cache-off adds no misses" s0.Memo.misses s1.Memo.misses;
  check bool "cache-off guarantee identical" true
    (Mapping.Flow_map.throughput off = Mapping.Flow_map.throughput cached
    && Mapping.Flow_map.throughput off <> None);
  check bool "cache-off reanalysis identical" true
    (Result.map Throughput.to_rational_opt reanalysed
    = Ok (Mapping.Flow_map.throughput off));
  (* closures in the options are never keyed: every call recomputes *)
  let opts =
    {
      Execution.default_options with
      Execution.firing_time = Some (fun a -> a.Graph.execution_time);
    }
  in
  check bool "options with closures are unkeyable" true
    (Execution.options_key opts = None);
  let b0 = Throughput.memo_stats () in
  let r1 = Throughput.analyse_memo ~options:opts g in
  let r2 = Throughput.analyse_memo ~options:opts g in
  check bool "unkeyable runs still agree" true (r1 = r2);
  let b1 = Throughput.memo_stats () in
  check int "unkeyable runs bypass the cache" b0.Memo.hits b1.Memo.hits;
  (* distinct analysis options get distinct keys *)
  let k_default = Execution.options_key Execution.default_options in
  let k_unbounded =
    Execution.options_key
      { Execution.default_options with Execution.auto_concurrency = None }
  in
  check bool "auto-concurrency is part of the key" false
    (k_default = k_unbounded)

let () =
  let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest) tests) in
  Alcotest.run "sdf"
    [
      ( "rational",
        [
          Alcotest.test_case "normalization" `Quick test_rational_normalization;
          Alcotest.test_case "arithmetic" `Quick test_rational_arithmetic;
          Alcotest.test_case "errors" `Quick test_rational_errors;
          Alcotest.test_case "overflow safety" `Quick
            test_rational_overflow_safety;
          Alcotest.test_case "gcd lcm" `Quick test_gcd_lcm;
        ] );
      qsuite "rational.props" rational_props;
      ( "heap",
        [ Alcotest.test_case "stable order" `Quick test_heap_order ] );
      qsuite "heap.props" heap_props;
      ( "graph",
        [
          Alcotest.test_case "builder" `Quick test_graph_builder;
          Alcotest.test_case "errors" `Quick test_graph_errors;
          Alcotest.test_case "execution times" `Quick test_graph_execution_times;
        ] );
      ( "repetition",
        [
          Alcotest.test_case "figure2" `Quick test_repetition_figure2;
          Alcotest.test_case "multirate" `Quick test_repetition_multirate;
          Alcotest.test_case "inconsistent" `Quick test_repetition_inconsistent;
          Alcotest.test_case "disconnected" `Quick test_repetition_disconnected;
          Alcotest.test_case "empty" `Quick test_repetition_empty;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "connectivity" `Quick test_connectivity;
          Alcotest.test_case "scc" `Quick test_scc;
          Alcotest.test_case "topological order" `Quick test_topological_order;
          Alcotest.test_case "admission" `Quick test_admission;
        ] );
      ( "execution",
        [
          Alcotest.test_case "figure2 timing" `Quick test_execution_figure2_timing;
          Alcotest.test_case "iteration times" `Quick test_execution_iteration_times;
          Alcotest.test_case "deadlock" `Quick test_execution_deadlock;
          Alcotest.test_case "budget" `Quick test_execution_budget;
          Alcotest.test_case "auto concurrency" `Quick test_execution_auto_concurrency;
          Alcotest.test_case "resources" `Quick test_execution_resources;
          Alcotest.test_case "trace" `Quick test_execution_trace;
        ] );
      ( "throughput",
        [
          Alcotest.test_case "two cycle" `Quick test_throughput_two_cycle;
          Alcotest.test_case "figure2" `Quick test_throughput_figure2;
          Alcotest.test_case "deadlock" `Quick test_throughput_deadlock;
          Alcotest.test_case "unbounded" `Quick test_throughput_unbounded;
          Alcotest.test_case "budget interrupt" `Quick
            test_throughput_budget_interrupt;
          Alcotest.test_case "resource bound" `Quick test_throughput_resource_bound;
          Alcotest.test_case "actor throughput" `Quick test_actor_throughput;
        ] );
      ( "buffers",
        [
          Alcotest.test_case "lower bound" `Quick test_buffer_lower_bound;
          Alcotest.test_case "add capacity" `Quick test_add_capacity;
          Alcotest.test_case "capacity throttles" `Quick test_capacity_throttles;
          Alcotest.test_case "size for throughput" `Quick test_size_for_throughput;
          Alcotest.test_case "trade-off curve" `Quick test_trade_off_curve;
          Alcotest.test_case "impossible target" `Quick test_size_for_throughput_impossible;
        ] );
      ( "memo",
        [
          Alcotest.test_case "structural key sensitivity" `Quick
            test_structural_key_sensitivity;
          Alcotest.test_case "bounded table" `Quick test_memo_table_bounds;
          Alcotest.test_case "analyse_memo correctness" `Quick
            test_analyse_memo_correctness;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "order" `Quick test_list_schedule_order;
          Alcotest.test_case "two resources" `Quick test_list_schedule_two_resources;
          Alcotest.test_case "deadlock" `Quick test_list_schedule_deadlock;
          Alcotest.test_case "validate mismatch" `Quick test_schedule_validate_mismatch;
        ] );
      ( "transform",
        [
          Alcotest.test_case "auto concurrency" `Quick test_constrain_auto_concurrency;
          Alcotest.test_case "scale times" `Quick test_scale_execution_times;
          Alcotest.test_case "merge" `Quick test_merge;
          Alcotest.test_case "merge name clash" `Quick test_merge_name_clash;
          Alcotest.test_case "uniquify" `Quick test_uniquify;
        ] );
      ( "hsdf",
        [
          Alcotest.test_case "figure2 expansion" `Quick test_hsdf_figure2;
          Alcotest.test_case "rejections" `Quick test_hsdf_rejections;
        ] );
      ( "mcm",
        [
          Alcotest.test_case "two cycle" `Quick test_mcm_two_cycle;
          Alcotest.test_case "deadlock and acyclic" `Quick
            test_mcm_deadlock_and_acyclic;
          Alcotest.test_case "critical cycle" `Quick
            test_mcm_picks_critical_cycle;
          Alcotest.test_case "methods agree on fixtures" `Quick
            test_methods_agree_fixtures;
          Alcotest.test_case "methods agree when mapped" `Quick
            test_methods_agree_mapped;
          Alcotest.test_case "memoized mcm" `Quick test_methods_memo_agree;
          Alcotest.test_case "counters" `Quick test_mcm_counters;
          Alcotest.test_case "howard matches the reference on the case study"
            `Quick test_howard_case_study_reference;
          Alcotest.test_case "howard polls the budget" `Quick
            test_howard_polls_budget;
        ] );
      ( "io",
        [
          Alcotest.test_case "dot" `Quick test_dot_output;
          Alcotest.test_case "hsdf dot" `Quick test_hsdf_dot_output;
          Alcotest.test_case "xml roundtrip" `Quick test_xml_roundtrip;
          Alcotest.test_case "xml errors" `Quick test_xml_errors;
        ] );
      qsuite "properties" sdf_props;
    ]
