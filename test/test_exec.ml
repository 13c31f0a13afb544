(* The parallel execution core: Exec.Pool's determinism contract (input
   ordering, typed error collection, pool reuse, nested-map rejection,
   parallelism resolution) and the end-to-end guarantee that a DSE sweep
   and a conformance shard produce identical results at any -j. *)

module Pool = Exec.Pool

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let key_list =
  Alcotest.(
    list
      (pair
         (pair int string)
         (pair (option string) int)))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* --- parallelism resolution ------------------------------------------------ *)

let test_parallelism_resolution () =
  (* putenv with "" effectively unsets it for the integer parser *)
  Unix.putenv "MAMPS_JOBS" "";
  check int "explicit jobs wins" 3 (Pool.parallelism ~jobs:3 ());
  check int "default applies when flag and env are absent" 1
    (Pool.parallelism ~default:1 ());
  Unix.putenv "MAMPS_JOBS" "5";
  check int "MAMPS_JOBS beats the default" 5 (Pool.parallelism ~default:1 ());
  check int "explicit jobs beats MAMPS_JOBS" 2
    (Pool.parallelism ~jobs:2 ~default:1 ());
  Unix.putenv "MAMPS_JOBS" "not-a-number";
  check int "unparseable MAMPS_JOBS falls through" 1
    (Pool.parallelism ~warn:ignore ~default:1 ());
  Unix.putenv "MAMPS_JOBS" "";
  check bool "jobs:0 means one domain per core" true
    (Pool.parallelism ~jobs:0 ~default:1 () >= 1);
  check bool "no flag, env or default resolves to at least 1" true
    (Pool.parallelism () >= 1)

let test_malformed_jobs_env () =
  (* the satellite fix: malformed MAMPS_JOBS warns and falls through to
     the default — never an exception, never a silent 1-of-ambiguity *)
  (match Pool.parse_jobs "4" with
  | Ok 4 -> ()
  | _ -> Alcotest.fail "parse_jobs \"4\"");
  (match Pool.parse_jobs " 0 " with
  | Ok 0 -> ()
  | _ -> Alcotest.fail "parse_jobs with whitespace");
  (match Pool.parse_jobs "abc" with
  | Error (Pool.Unparseable "abc") -> ()
  | _ -> Alcotest.fail "parse_jobs \"abc\" should be Unparseable");
  (match Pool.parse_jobs "-3" with
  | Error (Pool.Negative (-3)) -> ()
  | _ -> Alcotest.fail "parse_jobs \"-3\" should be Negative");
  let warnings = ref [] in
  let warn msg = warnings := msg :: !warnings in
  Unix.putenv "MAMPS_JOBS" "abc";
  check int "unparseable env warns and uses the default" 7
    (Pool.parallelism ~warn ~default:7 ());
  Unix.putenv "MAMPS_JOBS" "-3";
  check int "negative env warns and uses the default" 7
    (Pool.parallelism ~warn ~default:7 ());
  Unix.putenv "MAMPS_JOBS" "";
  check int "one warning per malformed resolution" 2 (List.length !warnings);
  check bool "warnings name the offending value" true
    (List.exists (fun m -> contains m "abc") !warnings
    && List.exists (fun m -> contains m "-3") !warnings)

(* --- ordering --------------------------------------------------------------- *)

(* skew per-task duration so a racy implementation would come back shuffled *)
let busy i =
  let spin = (97 - (i mod 97)) * 500 in
  let acc = ref 0 in
  for k = 1 to spin do
    acc := !acc + (k land 7)
  done;
  ignore (Sys.opaque_identity !acc)

let test_map_preserves_order () =
  let xs = List.init 100 Fun.id in
  let f i =
    busy i;
    (i * i) + 1
  in
  let expected = List.map f xs in
  Pool.with_pool ~oversubscribe:true ~jobs:4 (fun pool ->
      check (Alcotest.list int) "parallel map equals List.map" expected
        (Pool.map pool f xs));
  Pool.with_pool ~jobs:1 (fun pool ->
      check (Alcotest.list int) "sequential pool agrees too" expected
        (Pool.map pool f xs))

let test_map_edge_sizes () =
  Pool.with_pool ~oversubscribe:true ~jobs:4 (fun pool ->
      check (Alcotest.list int) "empty input" [] (Pool.map pool succ []);
      check (Alcotest.list int) "singleton input" [ 8 ]
        (Pool.map pool succ [ 7 ]);
      check (Alcotest.list int) "fewer tasks than workers" [ 1; 2 ]
        (Pool.map pool succ [ 0; 1 ]))

let failure_strings outs =
  List.map
    (function
      | Ok v -> Printf.sprintf "ok:%d" v
      | Error f -> Format.asprintf "%a" Pool.pp_task_failure f)
    outs

(* --- chunked scheduling ------------------------------------------------------ *)

let test_chunked_map_determinism () =
  let n = 37 in
  (* a chunk count that does not divide n, one that does, degenerate 1,
     and one larger than the whole input *)
  let chunks = [ 1; 4; 5; 37; 100 ] in
  let xs = List.init n Fun.id in
  let f i =
    busy i;
    (i * 3) - 1
  in
  let expected = List.map f xs in
  List.iter
    (fun jobs ->
      Pool.with_pool ~oversubscribe:true ~jobs (fun pool ->
          check (Alcotest.list int)
            (Printf.sprintf "auto chunk at -j %d" jobs)
            expected (Pool.map pool f xs);
          List.iter
            (fun chunk ->
              check (Alcotest.list int)
                (Printf.sprintf "chunk %d at -j %d" chunk jobs)
                expected
                (Pool.map pool ~chunk f xs))
            chunks))
    [ 1; 2; 4 ];
  Pool.with_pool ~oversubscribe:true ~jobs:2 (fun pool ->
      Alcotest.check_raises "chunk 0 rejected"
        (Invalid_argument "Pool.map: chunk 0 < 1") (fun () ->
          ignore (Pool.map pool ~chunk:0 succ xs)))

let test_chunked_map_result () =
  let f i = if i mod 5 = 3 then failwith "boom" else i * 2 in
  let strings jobs chunk =
    Pool.with_pool ~oversubscribe:true ~jobs (fun pool ->
        failure_strings (Pool.map_result pool ?chunk f (List.init 23 Fun.id)))
  in
  let reference = strings 1 None in
  List.iter
    (fun jobs ->
      List.iter
        (fun chunk ->
          check
            Alcotest.(list string)
            (Printf.sprintf "map_result identical at -j %d chunk %s" jobs
               (match chunk with Some c -> string_of_int c | None -> "auto"))
            reference (strings jobs chunk))
        [ None; Some 1; Some 4; Some 30 ])
    [ 2; 4 ]

let test_auto_chunk_size () =
  (* about four chunks per worker, never zero *)
  check int "100 tasks on 4 workers" 6 (Pool.Private.default_chunk ~jobs:4 100);
  check int "8 tasks on 4 workers" 1 (Pool.Private.default_chunk ~jobs:4 8);
  check int "1 task on 64 workers" 1 (Pool.Private.default_chunk ~jobs:64 1);
  check int "1000 tasks on 2 workers" 125
    (Pool.Private.default_chunk ~jobs:2 1000)

(* --- worker flag hygiene ----------------------------------------------------- *)

let test_raise_does_not_poison_worker () =
  (* jobs:1 runs tasks on the calling domain: before the Fun.protect fix
     an exception escaping a task left the domain's in-task flag set, so
     every later map on that domain raised a spurious Nested_map *)
  Pool.with_pool ~jobs:1 (fun pool ->
      (match
         Pool.Private.unchecked_map pool (fun _ -> failwith "escape") 2
       with
      | _ -> Alcotest.fail "unchecked task should raise"
      | exception Failure _ -> ());
      check (Alcotest.list int) "domain not poisoned: map still works"
        [ 1; 2; 3 ]
        (Pool.map pool succ [ 0; 1; 2 ]))

(* --- core-count clamp -------------------------------------------------------- *)

let test_core_clamp () =
  let cores = Stdlib.max 1 (Domain.recommended_domain_count ()) in
  Pool.with_pool ~jobs:(cores + 7) (fun pool ->
      check bool "default pools never oversubscribe the cores" true
        (Pool.jobs pool <= cores));
  Pool.with_pool ~oversubscribe:true ~jobs:(cores + 1) (fun pool ->
      check int "oversubscribe escape hatch keeps the requested jobs"
        (cores + 1) (Pool.jobs pool))

(* --- error collection ------------------------------------------------------- *)

let test_map_result_collects_errors () =
  let f i = if i mod 3 = 0 then failwith (Printf.sprintf "boom %d" i) else i in
  Pool.with_pool ~oversubscribe:true ~jobs:4 (fun pool ->
      let outs = Pool.map_result pool f (List.init 10 Fun.id) in
      check int "one result per input" 10 (List.length outs);
      List.iteri
        (fun i out ->
          match out with
          | Ok v ->
              check bool "success at non-multiples of 3" true (i mod 3 <> 0);
              check int "successes carry the value" i v
          | Error (Pool.Raised (e : Pool.task_error)) ->
              check bool "failure at multiples of 3" true (i mod 3 = 0);
              check int "error knows its input index" i e.Pool.task_index;
              check int "single attempt without retry" 1 e.Pool.attempts;
              check bool "error carries the message" true
                (String.length e.Pool.message > 0)
          | Error f ->
              Alcotest.failf "expected Raised, got %a" Pool.pp_task_failure f)
        outs)

let test_map_raises_earliest_failure () =
  let f i = if i >= 7 then failwith (Printf.sprintf "boom %d" i) else i in
  Pool.with_pool ~oversubscribe:true ~jobs:4 (fun pool ->
      match Pool.map pool f (List.init 12 Fun.id) with
      | _ -> Alcotest.fail "map should have raised"
      | exception Failure msg ->
          (* tasks 7..11 all fail; input order picks 7 deterministically *)
          check Alcotest.string "earliest failing input wins" "boom 7" msg)

(* --- pool reuse ------------------------------------------------------------- *)

let test_pool_reuse () =
  Pool.with_pool ~oversubscribe:true ~jobs:3 (fun pool ->
      check int "pool reports its parallelism" 3 (Pool.jobs pool);
      for round = 1 to 5 do
        let xs = List.init (10 * round) (fun i -> i + round) in
        check (Alcotest.list int)
          (Printf.sprintf "round %d on the same pool" round)
          (List.map succ xs) (Pool.map pool succ xs)
      done)

(* --- nested-map rejection --------------------------------------------------- *)

let test_nested_map_rejected () =
  Pool.with_pool ~oversubscribe:true ~jobs:2 (fun pool ->
      Alcotest.check_raises "nested map on a parallel pool" Pool.Nested_map
        (fun () ->
          ignore (Pool.map pool (fun _ -> Pool.map pool succ [ 1 ]) [ 1; 2 ])));
  Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.check_raises "nested map on a sequential pool" Pool.Nested_map
        (fun () ->
          ignore (Pool.map pool (fun _ -> Pool.map pool succ [ 1 ]) [ 1 ])));
  (* after a rejected round the pool still works *)
  Pool.with_pool ~oversubscribe:true ~jobs:2 (fun pool ->
      (match Pool.map pool (fun _ -> Pool.map pool succ [ 1 ]) [ 1 ] with
      | _ -> Alcotest.fail "nested map should raise"
      | exception Pool.Nested_map -> ());
      check (Alcotest.list int) "pool usable after a nested rejection"
        [ 2; 3 ]
        (Pool.map pool succ [ 1; 2 ]))

(* --- budgeted execution ------------------------------------------------------ *)

(* a cooperative stall: polls the ambient budget like the simulator and the
   throughput analysis do, with a wall-clock escape hatch so a broken
   timeout can never hang the suite *)
let stall () =
  let bail = Exec.Clock.now () +. 5.0 in
  while Exec.Clock.now () < bail do
    Exec.Budget.check ()
  done;
  Alcotest.fail "stall escaped its budget"

let test_budget_scope_semantics () =
  check bool "no ambient scope: check is a no-op" true
    (Exec.Budget.check () = ());
  let token = Exec.Budget.token () in
  let scope = Exec.Budget.scope ~cancel:token () in
  Exec.Budget.with_scope scope (fun () ->
      check bool "armed token not yet expired" true
        (Exec.Budget.current_status () = None);
      Exec.Budget.cancel token;
      match Exec.Budget.check () with
      | () -> Alcotest.fail "check should raise after cancel"
      | exception Exec.Budget.Expired Exec.Budget.Cancelled -> ());
  (* nested scopes merge: the inner deadline cannot outlive the outer *)
  let outer = Exec.Budget.scope ~deadline:(Exec.Budget.after 0.0) () in
  let inner = Exec.Budget.scope ~deadline:(Exec.Budget.after 60.0) () in
  Exec.Budget.with_scope outer (fun () ->
      Exec.Budget.with_scope inner (fun () ->
          match Exec.Budget.check () with
          | () -> Alcotest.fail "outer deadline should win"
          | exception Exec.Budget.Expired Exec.Budget.Deadline -> ()));
  check bool "scope restored after with_scope" true
    (Exec.Budget.current_status () = None)

let test_run_budgeted_timeout_and_retry () =
  let attempts_seen = ref 0 in
  let retry = Pool.retry ~max_attempts:3 ~base_delay_s:0.001 () in
  (match
     Pool.run_budgeted ~timeout:0.05 ~retry ~task_index:4 (fun () ->
         incr attempts_seen;
         stall ())
   with
  | Error (Pool.Timed_out { task_index = 4; attempts = 3; budget }) ->
      check bool "budget is the configured per-attempt timeout" true
        (budget = Pool.Per_attempt 0.05)
  | Ok _ -> Alcotest.fail "stall should not succeed"
  | Error f -> Alcotest.failf "expected Timed_out, got %a" Pool.pp_task_failure f);
  check int "every configured attempt ran" 3 !attempts_seen;
  (* a task that recovers on a later attempt succeeds *)
  let tries = ref 0 in
  (match
     Pool.run_budgeted ~timeout:1.0 ~retry ~task_index:0 (fun () ->
         incr tries;
         if !tries < 3 then failwith "flaky" else 42)
   with
  | Ok 42 -> ()
  | _ -> Alcotest.fail "third attempt should succeed");
  (* exhausted retries on a raising task give Gave_up with the count *)
  (match
     Pool.run_budgeted ~retry ~task_index:1 (fun () -> failwith "always")
   with
  | Error (Pool.Gave_up e) ->
      check int "Gave_up counts its attempts" 3 e.Pool.attempts
  | _ -> Alcotest.fail "expected Gave_up")

let test_deadline_only_timeout_message () =
  (* with no per-attempt timeout, the batch deadline used to surface as
     "0s budget"; it must name the deadline instead *)
  (match
     Pool.run_budgeted
       ~deadline:(Exec.Budget.after 0.0)
       ~task_index:2
       (fun () -> stall ())
   with
  | Error (Pool.Timed_out { task_index = 2; attempts = 1; budget }) ->
      check bool "deadline-only expiry reports Batch_deadline" true
        (budget = Pool.Batch_deadline);
      let msg =
        Format.asprintf "%a" Pool.pp_task_failure
          (Pool.Timed_out { task_index = 2; attempts = 1; budget })
      in
      check bool "message names the batch deadline" true
        (contains msg "batch deadline");
      check bool "no bogus 0s budget" false (contains msg "0s budget")
  | Ok _ -> Alcotest.fail "expired deadline must not succeed"
  | Error f ->
      Alcotest.failf "expected Timed_out, got %a" Pool.pp_task_failure f);
  (* per-attempt timeouts still report their configured budget *)
  (match
     Pool.run_budgeted ~timeout:0.01 ~task_index:0 (fun () -> stall ())
   with
  | Error (Pool.Timed_out { budget = Pool.Per_attempt t; _ }) ->
      check bool "per-attempt budget carried through" true (t = 0.01)
  | _ -> Alcotest.fail "expected a per-attempt Timed_out");
  (* the same shape through map_result *)
  Pool.with_pool ~jobs:1 (fun pool ->
      Pool.map_result pool
        ~deadline:(Exec.Budget.after 0.0)
        (fun _ -> stall ())
        [ 0; 1 ]
      |> List.iter (function
           | Error (Pool.Timed_out { budget = Pool.Batch_deadline; _ }) -> ()
           | Ok _ | Error _ ->
               Alcotest.fail "expected batch-deadline Timed_out"))

let test_run_budgeted_cancellation () =
  let token = Exec.Budget.token () in
  Exec.Budget.cancel token;
  (match
     Pool.run_budgeted ~cancel:token ~task_index:0 (fun () ->
         Alcotest.fail "cancelled task must not start")
   with
  | Error (Pool.Cancelled { task_index = 0 }) -> ()
  | _ -> Alcotest.fail "expected Cancelled");
  (* cancellation mid-task is not retried *)
  let token = Exec.Budget.token () in
  let started = ref 0 in
  (match
     Pool.run_budgeted ~retry:Pool.default_retry ~cancel:token ~task_index:0
       (fun () ->
         incr started;
         Exec.Budget.cancel token;
         stall ())
   with
  | Error (Pool.Cancelled _) -> check int "no retry after cancel" 1 !started
  | _ -> Alcotest.fail "expected mid-task Cancelled")

let test_backoff_determinism () =
  let policy = Pool.retry ~max_attempts:4 ~base_delay_s:0.05 ~retry_seed:9 () in
  List.iter
    (fun (task_index, attempt) ->
      let a = Pool.backoff_delay policy ~task_index ~attempt in
      let b = Pool.backoff_delay policy ~task_index ~attempt in
      check bool "backoff is a pure function" true (a = b);
      check bool "backoff is positive and bounded" true
        (a > 0.0 && a <= 0.05 *. (2.0 ** float_of_int (attempt - 1))))
    [ (0, 1); (0, 2); (3, 1); (3, 3); (7, 2) ]

let test_map_result_timeout_determinism () =
  (* a deliberately hung task at fixed indices: timed out, retried per
     policy, surfaced as a typed per-task error — without stalling the
     pool or perturbing result order at any -j *)
  let f i = if i mod 4 = 2 then stall () else i * 10 in
  let retry = Pool.retry ~max_attempts:2 ~base_delay_s:0.001 () in
  let run jobs =
    Pool.with_pool ~oversubscribe:true ~jobs (fun pool ->
        Pool.map_result pool ~timeout:0.05 ~retry f (List.init 8 Fun.id))
  in
  let seq = run 1 and par = run 4 in
  check
    Alcotest.(list string)
    "timeout reports byte-identical at -j 1 vs -j 4" (failure_strings seq)
    (failure_strings par);
  List.iteri
    (fun i out ->
      match out with
      | Ok v -> check int "successes keep their slot" (i * 10) v
      | Error (Pool.Timed_out { task_index; attempts = 2; _ }) ->
          check int "timeouts keep their slot" i task_index;
          check bool "only the stalled indices time out" true (i mod 4 = 2)
      | Error f ->
          Alcotest.failf "unexpected failure %a" Pool.pp_task_failure f)
    seq;
  let s = Pool.stats seq in
  check int "stats: ok" 6 s.Pool.st_ok;
  check int "stats: timed out" 2 s.Pool.st_timed_out;
  check int "stats: retries" 2 s.Pool.st_retries

(* --- DSE determinism --------------------------------------------------------- *)

let point_key (p : Core.Dse.point) =
  ( (p.Core.Dse.tile_count, Core.Dse.interconnect_label p.Core.Dse.interconnect),
    (Option.map Sdf.Rational.to_string p.Core.Dse.guarantee, p.Core.Dse.slices)
  )

let test_dse_parallel_deterministic () =
  let w = Gen.Workload.generate ~seed:11 () in
  let explore jobs =
    Core.Dse.explore w.Gen.Workload.application ~tile_counts:[ 1; 2 ] ~jobs ()
  in
  let seq_points, seq_failures = explore 1 in
  let par_points, par_failures = explore 4 in
  check key_list "points identical and in sweep order"
    (List.map point_key seq_points)
    (List.map point_key par_points);
  check
    Alcotest.(list (triple int string string))
    "failures identical" seq_failures par_failures;
  check key_list "Pareto fronts identical"
    (List.map point_key (Core.Dse.pareto seq_points))
    (List.map point_key (Core.Dse.pareto par_points));
  (* the flows behind matching points drive the simulator to bit-identical
     results *)
  let measure (p : Core.Dse.point) =
    match Core.Design_flow.measure p.Core.Dse.flow ~iterations:8 () with
    | Ok r -> r
    | Error e -> Alcotest.fail (Core.Flow_error.to_string e)
  in
  check bool "sequential and parallel sweeps found points" true
    (seq_points <> []);
  List.iter2
    (fun a b ->
      check bool "simulator results bit-identical across -j" true
        (Sim.Platform_sim.results_equal (measure a) (measure b)))
    seq_points par_points

(* --- conformance shard determinism ------------------------------------------- *)

let temp_out name =
  Filename.concat (Filename.get_temp_dir_name ())
    ("mamps_exec_test_" ^ name)

(* the conformance per-seed timeout relies on an ambient budget reaching the
   points of a sweep: an expiry inside a point escapes [explore] at every
   -j instead of becoming an infeasible point *)
let test_dse_explore_propagates_budget () =
  let w = Gen.Workload.generate ~seed:11 () in
  let expired = Exec.Budget.scope ~deadline:(Exec.Budget.after 0.0) () in
  List.iter
    (fun jobs ->
      match
        Exec.Budget.with_scope expired (fun () ->
            Core.Dse.explore w.Gen.Workload.application ~tile_counts:[ 1; 2 ]
              ~jobs ())
      with
      | _ -> Alcotest.failf "explore at -j %d finished past its deadline" jobs
      | exception Exec.Budget.Expired _ -> ())
    [ 1; 2 ]

let test_conformance_shard_deterministic () =
  let options =
    {
      Conformance.Engine.default_options with
      iterations = 6;
      dse_every = 3;
    }
  in
  let run jobs =
    Conformance.Engine.run_suite ~options
      ~out_dir:(temp_out (Printf.sprintf "conf_j%d" jobs))
      ~jobs ~base_seed:0 ~count:6 ()
  in
  let seq = run 1 and par = run 4 in
  check int "same number of cases" 6
    (List.length par.Conformance.Engine.r_cases);
  List.iter2
    (fun (a : Conformance.Engine.case) b ->
      check bool
        (Printf.sprintf "case for seed %d identical" a.Conformance.Engine.c_seed)
        true (a = b))
    seq.Conformance.Engine.r_cases par.Conformance.Engine.r_cases;
  check int "same number of failures"
    (List.length seq.Conformance.Engine.r_failures)
    (List.length par.Conformance.Engine.r_failures);
  check bool "tightness statistics identical" true
    (seq.Conformance.Engine.r_mean_tightness
     = par.Conformance.Engine.r_mean_tightness
    && seq.Conformance.Engine.r_max_tightness
       = par.Conformance.Engine.r_max_tightness)

let test_conformance_progress_in_seed_order () =
  let options =
    { Conformance.Engine.default_options with iterations = 4; dse_every = 0 }
  in
  let seen = ref [] in
  let _report =
    Conformance.Engine.run_suite ~options
      ~out_dir:(temp_out "conf_progress")
      ~progress:(fun c -> seen := c.Conformance.Engine.c_seed :: !seen)
      ~jobs:4 ~base_seed:3 ~count:5 ()
  in
  check (Alcotest.list int) "progress fires once per seed, in seed order"
    [ 3; 4; 5; 6; 7 ] (List.rev !seen)

(* --- checkpointed anytime DSE ------------------------------------------------ *)

let ckpt_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    ("mamps_exec_test_" ^ name ^ ".ckpt")

let test_checkpoint_roundtrip () =
  let t =
    {
      Core.Dse_checkpoint.app = "graph \"with\" quotes\nand newline";
      entries =
        [
          Core.Dse_checkpoint.Feasible
            {
              interconnect = "fsl";
              tiles = 2;
              guarantee = Some (Sdf.Rational.make 3 14);
              slices = 1234;
            };
          Core.Dse_checkpoint.Feasible
            { interconnect = "noc"; tiles = 1; guarantee = None; slices = 99 };
          Core.Dse_checkpoint.Failed
            {
              interconnect = "noc";
              tiles = 3;
              reason = "mapping failed: \"odd\" reason\twith escapes";
            };
        ];
    }
  in
  let path = ckpt_path "roundtrip" in
  Core.Dse_checkpoint.write ~path t;
  (match Core.Dse_checkpoint.read ~path with
  | Ok t' -> check bool "checkpoint round-trips exactly" true (t = t')
  | Error msg -> Alcotest.fail msg);
  (* corrupting the version must be a typed refusal, not a partial load *)
  let oc = open_out path in
  output_string oc "mamps-dse-checkpoint 99\napp \"x\"\n";
  close_out oc;
  (match Core.Dse_checkpoint.read ~path with
  | Error msg -> check bool "future version rejected" true (contains msg "version")
  | Ok _ -> Alcotest.fail "future version must not load");
  match Core.Dse_checkpoint.read ~path:(ckpt_path "does-not-exist") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing checkpoint must not load"

let anytime_strings (a : Core.Dse.anytime) =
  ( Format.asprintf "%a" Core.Dse.pp_summary_table a.Core.Dse.a_summaries,
    Format.asprintf "%a" Core.Dse.pp_summary_table
      (Core.Dse.pareto_summaries a.Core.Dse.a_summaries),
    a.Core.Dse.a_failures )

let test_anytime_matches_explore () =
  let w = Gen.Workload.generate ~seed:11 () in
  let app = w.Gen.Workload.application in
  let points, failures = Core.Dse.explore app ~tile_counts:[ 1; 2 ] () in
  match Core.Dse.explore_anytime app ~tile_counts:[ 1; 2 ] () with
  | Error msg -> Alcotest.fail msg
  | Ok a ->
      check bool "no degradation without a budget" true
        (a.Core.Dse.a_degradation = None);
      check bool "anytime summaries equal summarized explore points" true
        (a.Core.Dse.a_summaries = List.map Core.Dse.summarize points);
      check
        Alcotest.(list (triple int string string))
        "failures identical" failures a.Core.Dse.a_failures

let test_anytime_deadline_and_resume () =
  let w = Gen.Workload.generate ~seed:11 () in
  let app = w.Gen.Workload.application in
  let uninterrupted =
    match Core.Dse.explore_anytime app ~tile_counts:[ 1; 2 ] () with
    | Ok a -> a
    | Error msg -> Alcotest.fail msg
  in
  let path = ckpt_path "deadline" in
  if Sys.file_exists path then Sys.remove path;
  (* an already-expired deadline forces a fully-degraded Partial: nothing
     evaluated, everything skipped, and a (valid, empty) checkpoint *)
  let metrics = Obs.Metrics.create () in
  (match
     Core.Dse.explore_anytime app ~tile_counts:[ 1; 2 ]
       ~deadline:(Exec.Budget.after 0.0) ~checkpoint:path ~metrics ()
   with
  | Error msg -> Alcotest.fail msg
  | Ok partial -> (
      check bool "summaries empty under expired deadline" true
        (partial.Core.Dse.a_summaries = []);
      match partial.Core.Dse.a_degradation with
      | Some d ->
          check bool "degradation reason is the deadline" true
            (d.Core.Dse.d_reason = Exec.Budget.Deadline);
          check int "nothing evaluated" 0 d.Core.Dse.d_evaluated;
          check int "all four combos skipped" 4 d.Core.Dse.d_skipped;
          check int "metrics count the skips" 4
            (Obs.Metrics.counter metrics "dse.points.skipped")
      | None -> Alcotest.fail "expected a degradation report"));
  check bool "partial run left a checkpoint" true (Sys.file_exists path);
  (* resume with no budget completes, byte-identical to uninterrupted *)
  (match
     Core.Dse.explore_anytime app ~tile_counts:[ 1; 2 ] ~resume:path
       ~checkpoint:path ()
   with
  | Error msg -> Alcotest.fail msg
  | Ok resumed ->
      check bool "resumed run is complete" true
        (resumed.Core.Dse.a_degradation = None);
      let u_tbl, u_front, u_fail = anytime_strings uninterrupted in
      let r_tbl, r_front, r_fail = anytime_strings resumed in
      check Alcotest.string "summary tables byte-identical" u_tbl r_tbl;
      check Alcotest.string "Pareto fronts byte-identical" u_front r_front;
      check
        Alcotest.(list (triple int string string))
        "failures byte-identical" u_fail r_fail);
  (* resuming a *finished* checkpoint evaluates nothing new *)
  match
    Core.Dse.explore_anytime app ~tile_counts:[ 1; 2 ] ~resume:path ()
  with
  | Error msg -> Alcotest.fail msg
  | Ok again ->
      check int "finished checkpoint adopts every combo" 4
        again.Core.Dse.a_resumed;
      let u_tbl, _, _ = anytime_strings uninterrupted in
      let a_tbl, _, _ = anytime_strings again in
      check Alcotest.string "no-op resume still byte-identical" u_tbl a_tbl

let test_anytime_midflight_resume () =
  (* interrupt mid-sweep at an arbitrary point: wherever the deadline
     lands, resume must converge to the uninterrupted report *)
  let w = Gen.Workload.generate ~seed:11 () in
  let app = w.Gen.Workload.application in
  let uninterrupted =
    match Core.Dse.explore_anytime app ~tile_counts:[ 1; 2 ] () with
    | Ok a -> a
    | Error msg -> Alcotest.fail msg
  in
  let path = ckpt_path "midflight" in
  if Sys.file_exists path then Sys.remove path;
  (match
     Core.Dse.explore_anytime app ~tile_counts:[ 1; 2 ]
       ~deadline:(Exec.Budget.after 0.15) ~checkpoint:path ()
   with
  | Error msg -> Alcotest.fail msg
  | Ok _ -> ());
  match
    Core.Dse.explore_anytime app ~tile_counts:[ 1; 2 ] ~resume:path ()
  with
  | Error msg -> Alcotest.fail msg
  | Ok resumed ->
      check bool "resumed run is complete" true
        (resumed.Core.Dse.a_degradation = None);
      let u_tbl, u_front, u_fail = anytime_strings uninterrupted in
      let r_tbl, r_front, r_fail = anytime_strings resumed in
      check Alcotest.string "mid-flight resume: tables byte-identical" u_tbl
        r_tbl;
      check Alcotest.string "mid-flight resume: fronts byte-identical" u_front
        r_front;
      check
        Alcotest.(list (triple int string string))
        "mid-flight resume: failures byte-identical" u_fail r_fail

(* a partial sweep's tightest bound: highest guarantee, then fewest
   slices — checked on adopted checkpoint entries, so nothing depends on
   where a deadline lands *)
let test_anytime_tightest_bound () =
  let app = (Gen.Workload.generate ~seed:11 ()).Gen.Workload.application in
  let path = ckpt_path "tightest" in
  let entry tiles slices =
    Core.Dse_checkpoint.Feasible
      {
        interconnect = "fsl";
        tiles;
        guarantee = Some (Sdf.Rational.make 1 5);
        slices;
      }
  in
  Core.Dse_checkpoint.write ~path
    {
      Core.Dse_checkpoint.app = Appmodel.Application.name app;
      entries = [ entry 1 300; entry 2 200 ];
    };
  match
    Core.Dse.explore_anytime app ~tile_counts:[ 1; 2; 3 ]
      ~interconnects:[ Arch.Template.Use_fsl Arch.Fsl.default ]
      ~deadline:(Exec.Budget.after 0.0) ~resume:path ()
  with
  | Error msg -> Alcotest.fail msg
  | Ok a -> (
      match a.Core.Dse.a_degradation with
      | None -> Alcotest.fail "expected a degradation report"
      | Some d ->
          check int "the unadopted point is skipped" 1 d.Core.Dse.d_skipped;
          check bool "equal guarantees: fewest slices wins" true
            (Option.map
               (fun (s : Core.Dse.summary) -> s.s_tile_count)
               d.Core.Dse.d_best
            = Some 2))

(* --- conformance per-seed timeout -------------------------------------------- *)

let test_conformance_seed_timeout () =
  let options =
    {
      Conformance.Engine.default_options with
      iterations = 4;
      dse_every = 0;
      seed_timeout = Some 0.0;
    }
  in
  let run jobs =
    Conformance.Engine.run_suite ~options
      ~out_dir:(temp_out (Printf.sprintf "conf_timeout_j%d" jobs))
      ~jobs ~base_seed:0 ~count:3 ()
  in
  let seq = run 1 in
  List.iter
    (fun (c : Conformance.Engine.case) ->
      match c.Conformance.Engine.c_violations with
      | [
          {
            Conformance.Oracle.oracle = Conformance.Oracle.Seed_timeout;
            detail;
          };
        ] ->
          check bool "detail names the configured budget" true
            (contains detail "0s budget")
      | vs ->
          Alcotest.failf "seed %d: expected one seed-timeout violation, got %d"
            c.Conformance.Engine.c_seed (List.length vs))
    seq.Conformance.Engine.r_cases;
  check int "every seed failed with a reproducer" 3
    (List.length seq.Conformance.Engine.r_failures);
  List.iter
    (fun (f : Conformance.Engine.failure) ->
      match f.Conformance.Engine.f_reproducer with
      | Some dir ->
          check bool "reproducer directory exists" true (Sys.file_exists dir);
          check bool "reproducer is keyed by the timeout oracle" true
            (contains dir "seed-timeout")
      | None -> Alcotest.fail "timeout failure must write a reproducer")
    seq.Conformance.Engine.r_failures;
  let par = run 2 in
  List.iter2
    (fun (a : Conformance.Engine.case) b ->
      check bool "timeout cases identical at -j 2" true (a = b))
    seq.Conformance.Engine.r_cases par.Conformance.Engine.r_cases

(* --- trace counters ---------------------------------------------------------- *)

let test_chrome_trace_counters () =
  let doc =
    Obs.Chrome_trace.to_json
      ~counters:[ ("exec.task.timeouts", 2); ("dse.checkpoint.writes", 5) ]
      []
  in
  check bool "counter events present" true (contains doc "\"ph\":\"C\"");
  check bool "counter names present" true (contains doc "exec.task.timeouts");
  check bool "counter values present" true (contains doc "{\"value\":5}")

(* --- shared memo under concurrency ------------------------------------------- *)

(* the daemon's worker domains hit Sdf.Memo concurrently; these tests pin
   the table's contract under that load: counters account for every call,
   eviction respects the bound, and a cached result is byte-identical to
   a cold computation no matter which domain raced it in *)

let test_memo_table_hammer () =
  let table : int Sdf.Memo.t = Sdf.Memo.create ~capacity:4 () in
  let domains = 4 and keys = 16 and rounds = 50 in
  let wrong = Atomic.make 0 in
  let spawned =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for r = 0 to rounds - 1 do
              for i = 0 to keys - 1 do
                (* each domain walks the keys at a different phase so
                   identical and distinct keys race in every round *)
                let k = (i + d + r) mod keys in
                let v =
                  Sdf.Memo.find_or_add table
                    (Printf.sprintf "key%d" k)
                    (fun () -> k * 13)
                in
                if v <> k * 13 then Atomic.incr wrong
              done
            done))
  in
  List.iter Domain.join spawned;
  check int "every lookup returned its key's value" 0 (Atomic.get wrong);
  let s = Sdf.Memo.stats table in
  check int "hits + misses account for every call"
    (domains * rounds * keys)
    (s.Sdf.Memo.hits + s.Sdf.Memo.misses);
  check bool "size bounded by capacity" true (s.Sdf.Memo.size <= 4);
  check bool "eviction happened under pressure" true
    (s.Sdf.Memo.evictions > 0);
  (* each eviction and each resident entry came from a distinct insert,
     and racing domains insert at most once per miss *)
  check bool "evictions + size within miss count" true
    (s.Sdf.Memo.evictions + s.Sdf.Memo.size <= s.Sdf.Memo.misses)

let test_analyse_memo_concurrent () =
  Sdf.Throughput.memo_clear ();
  let graphs =
    List.init 6 (fun i ->
        let g, _, _ =
          Tgraphs.two_cycle ~time_a:(3 + i) ~time_b:(5 + (2 * i)) ~tokens:2
        in
        g)
  in
  (* cold, uncached ground truth *)
  let expected = List.map (fun g -> Sdf.Throughput.analyse g) graphs in
  let before = Sdf.Throughput.memo_stats () in
  let domains = 4 and rounds = 20 in
  let results = Array.make domains [] in
  let spawned =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            let acc = ref [] in
            for _ = 1 to rounds do
              List.iteri
                (fun i g ->
                  acc := (i, Sdf.Throughput.analyse_memo g) :: !acc)
                graphs
            done;
            results.(d) <- !acc))
  in
  List.iter Domain.join spawned;
  let d =
    Sdf.Memo.delta ~before ~after:(Sdf.Throughput.memo_stats ())
  in
  check int "hits + misses account for every analysis"
    (domains * rounds * List.length graphs)
    (d.Sdf.Memo.hits + d.Sdf.Memo.misses);
  check bool "each distinct graph missed at least once" true
    (d.Sdf.Memo.misses >= List.length graphs);
  Array.iter
    (List.iter (fun (i, r) ->
         check bool "concurrent result identical to a cold analysis" true
           (r = List.nth expected i)))
    results

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          Alcotest.test_case "parallelism resolution" `Quick
            test_parallelism_resolution;
          Alcotest.test_case "malformed MAMPS_JOBS" `Quick
            test_malformed_jobs_env;
          Alcotest.test_case "map preserves input order" `Quick
            test_map_preserves_order;
          Alcotest.test_case "map edge sizes" `Quick test_map_edge_sizes;
          Alcotest.test_case "chunked map determinism" `Quick
            test_chunked_map_determinism;
          Alcotest.test_case "chunked map_result determinism" `Quick
            test_chunked_map_result;
          Alcotest.test_case "auto chunk size" `Quick test_auto_chunk_size;
          Alcotest.test_case "raising task does not poison the worker" `Quick
            test_raise_does_not_poison_worker;
          Alcotest.test_case "core-count clamp" `Quick test_core_clamp;
          Alcotest.test_case "map_result collects typed errors" `Quick
            test_map_result_collects_errors;
          Alcotest.test_case "map raises the earliest failure" `Quick
            test_map_raises_earliest_failure;
          Alcotest.test_case "pool reuse across rounds" `Quick test_pool_reuse;
          Alcotest.test_case "nested map rejected" `Quick
            test_nested_map_rejected;
        ] );
      ( "budget",
        [
          Alcotest.test_case "scope semantics" `Quick
            test_budget_scope_semantics;
          Alcotest.test_case "run_budgeted timeout and retry" `Quick
            test_run_budgeted_timeout_and_retry;
          Alcotest.test_case "run_budgeted cancellation" `Quick
            test_run_budgeted_cancellation;
          Alcotest.test_case "deadline-only timeout message" `Quick
            test_deadline_only_timeout_message;
          Alcotest.test_case "backoff is deterministic" `Quick
            test_backoff_determinism;
          Alcotest.test_case "map_result timeouts identical at -j 4" `Quick
            test_map_result_timeout_determinism;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "DSE sweep identical at -j 4" `Quick
            test_dse_parallel_deterministic;
          Alcotest.test_case "conformance shard identical at -j 4" `Quick
            test_conformance_shard_deterministic;
          Alcotest.test_case "progress in seed order under -j" `Quick
            test_conformance_progress_in_seed_order;
          Alcotest.test_case "explore lets a budget expiry escape" `Quick
            test_dse_explore_propagates_budget;
        ] );
      ( "anytime",
        [
          Alcotest.test_case "checkpoint round-trip" `Quick
            test_checkpoint_roundtrip;
          Alcotest.test_case "anytime matches explore" `Quick
            test_anytime_matches_explore;
          Alcotest.test_case "deadline, checkpoint, resume" `Quick
            test_anytime_deadline_and_resume;
          Alcotest.test_case "mid-flight resume byte-identical" `Quick
            test_anytime_midflight_resume;
          Alcotest.test_case "conformance per-seed timeout" `Quick
            test_conformance_seed_timeout;
          Alcotest.test_case "chrome trace counters" `Quick
            test_chrome_trace_counters;
          Alcotest.test_case "tightest bound prefers fewer slices" `Quick
            test_anytime_tightest_bound;
        ] );
      ( "memo",
        [
          Alcotest.test_case "bounded table hammered from 4 domains" `Quick
            test_memo_table_hammer;
          Alcotest.test_case "analyse_memo identical under concurrency" `Quick
            test_analyse_memo_concurrent;
        ] );
    ]
