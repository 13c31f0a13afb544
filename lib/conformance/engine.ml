module W = Gen.Workload
module Rational = Sdf.Rational

type options = {
  iterations : int;
  max_cycles : int;
  dse_every : int;
  gen_config : W.config;
  seed_timeout : float option;
  memo : bool;
  analysis : Sdf.Throughput.method_;
}

let default_options =
  {
    iterations = 12;
    max_cycles = 2_000_000;
    dse_every = 5;
    gen_config = W.default_config;
    seed_timeout = None;
    memo = true;
    analysis = `State_space;
  }

(* the flow options a conformance run hands to every flow it builds:
   defaults except for the analysis-cache and analysis-method switches, so
   cache-off runs ([--no-memo]) stay byte-identical to cached ones *)
let flow_options options =
  {
    Mapping.Flow_map.default_options with
    Mapping.Flow_map.memo = options.memo;
    analysis = options.analysis;
  }

let interconnect_for_seed seed =
  if seed mod 2 = 0 then Arch.Template.Use_fsl Arch.Fsl.default
  else Arch.Template.Use_noc Arch.Noc.default_config

type case = {
  c_seed : int;
  c_interconnect : string;
  c_actors : int;
  c_channels : int;
  c_tightness : float option;
  c_violations : Oracle.violation list;
}

let actor_name i = Printf.sprintf "a%d" i

let count_of name assoc =
  match List.assoc_opt name assoc with Some n -> n | None -> 0

let check_workload ?(options = default_options) interconnect (w : W.t) =
  let violations = ref [] in
  let add oracle fmt =
    Printf.ksprintf
      (fun detail ->
        violations := { Oracle.oracle; detail } :: !violations)
      fmt
  in
  let tightness = ref None in
  let flow_err e = Core.Flow_error.to_string e in
  (match
     Core.Design_flow.run_auto w.application ~options:(flow_options options)
       interconnect ()
   with
  | Error e -> add Flow_completes "%s" (flow_err e)
  | Ok flow ->
      let n = options.iterations in
      let measure ?timing ?faults () =
        Core.Design_flow.measure flow ~iterations:n ?timing ?faults
          ~max_cycles:options.max_cycles ()
      in
      (* Oracle 1: the analysed guarantee bounds the WCET-timed run. *)
      (match measure ~timing:Sim.Platform_sim.Wcet () with
      | Error e -> add No_deadlock "WCET-timed run failed: %s" (flow_err e)
      | Ok wcet_run -> (
          match flow.guarantee with
          | None -> add Bound_holds "flow produced no throughput guarantee"
          | Some g ->
              let measured = Sim.Platform_sim.steady_throughput wcet_run in
              if Rational.compare measured g < 0 then
                add Bound_holds
                  "guarantee %s above WCET-simulated throughput %s"
                  (Rational.to_string g)
                  (Rational.to_string measured)
              else
                tightness :=
                  Some (Rational.to_float measured /. Rational.to_float g)));
      (* Oracle 9: the symbolic (max,+)/MCM analysis reproduces the
         state-space result on the mapped graph. Both methods run on the
         same expansion and options the flow analysed; a state-space
         non-verdict makes no claim. The symbolic first-iteration latency
         must equal the engine's one-iteration run, [None] exactly when
         that run does not finish. *)
      (let module T = Sdf.Throughput in
       let m = flow.Core.Design_flow.mapping in
       let g = m.Mapping.Flow_map.expansion.Mapping.Comm_map.graph in
       let exec_options = m.Mapping.Flow_map.exec_options in
       let max_steps = m.Mapping.Flow_map.options.throughput_max_steps in
       let analyse = if options.memo then T.analyse_memo else T.analyse in
       let ss =
         analyse ~options:exec_options ~max_steps ~method_:`State_space g
       in
       let mcm = analyse ~options:exec_options ~max_steps ~method_:`Mcm g in
       (match (ss, mcm) with
       | T.Throughput { throughput = t1; _ }, T.Throughput { throughput = t2; _ }
         ->
           if not (Rational.equal t1 t2) then
             add Analysis_agreement "mcm throughput %s, state space %s"
               (Rational.to_string t2) (Rational.to_string t1)
       | T.Deadlocked _, T.Deadlocked _ -> ()
       | (T.Throughput _ | T.Deadlocked _), other ->
           add Analysis_agreement
             "state space returned %s but mcm returned %s"
             (Format.asprintf "%a" T.pp_result ss)
             (Format.asprintf "%a" T.pp_result other)
       | (T.No_recurrence | T.Budget_exhausted _), _ -> ());
       let first = Sdf.Execution.run ~options:exec_options g ~iterations:1 in
       let engine =
         match first.Sdf.Execution.stop with
         | Sdf.Execution.Finished -> Some first.Sdf.Execution.end_time
         | Sdf.Execution.Deadlocked | Sdf.Execution.Out_of_budget -> None
       in
       let latency = Mapping.Flow_map.first_iteration_latency m in
       let show = function None -> "none" | Some c -> string_of_int c in
       if latency <> engine then
         add Analysis_agreement "first-iteration latency %s, engine %s"
           (show latency) (show engine));
      (* Oracles 2-4 on the data-dependent run. *)
      (match measure () with
      | Error e -> add No_deadlock "%s" (flow_err e)
      | Ok run ->
          (* Oracle 3: Fault.none (even reseeded) is invisible. *)
          (match
             measure ~faults:(Sim.Fault.with_seed (w.seed + 1) Sim.Fault.none)
               ()
           with
          | Error e -> add Fault_transparency "Fault.none run failed: %s" (flow_err e)
          | Ok run' ->
              if not (Sim.Platform_sim.results_equal run run') then
                add Fault_transparency
                  "Fault.none run differs from the uninjected run");
          (* Oracle 4: the untimed functional engine agrees. *)
          (match Appmodel.Functional.run w.application ~iterations:n () with
          | Error msg ->
              add Functional_agreement "functional engine failed: %s" msg
          | Ok fres ->
              if fres.iterations <> n then
                add Functional_agreement
                  "functional engine completed %d of %d iterations"
                  fres.iterations n;
              if run.iterations <> n then
                add Functional_agreement
                  "platform simulator completed %d of %d iterations"
                  run.iterations n;
              Array.iteri
                (fun i q ->
                  let name = actor_name i in
                  let expected = n * q in
                  let functional = count_of name fres.firing_counts in
                  let platform = count_of name run.firing_counts in
                  if functional <> expected then
                    add Functional_agreement
                      "%s fired %d times functionally, expected %d" name
                      functional expected;
                  (* the platform may run ahead within available buffers,
                     but can never have fired fewer than the completed
                     iterations require *)
                  if platform < expected then
                    add Functional_agreement
                      "%s fired %d times on the platform, iteration count \
                       requires at least %d"
                      name platform expected)
                w.repetition);
          (* Oracle 6: a permanent fault is tolerated, repaired with the
             degraded bound met and the function unchanged, or rejected
             with a typed unrepairable cause. One rotating scenario per
             seed keeps the sweep O(1) per workload while the suite still
             covers tiles, mesh hops and point-to-point links. *)
          let mapping = flow.Core.Design_flow.mapping in
          (match Recover.scenarios mapping with
          | [] -> ()
          | scenarios -> (
              let scenario =
                List.nth scenarios (w.seed mod List.length scenarios)
              in
              let sname = Recover.scenario_name scenario in
              match
                Recover.evaluate_scenario mapping scenario ~iterations:n
                  ~max_cycles:options.max_cycles ()
              with
              | Recover.Tolerated _ -> ()
              | Recover.Unrepairable e ->
                  if not (Recover.typed_unrepairable e) then
                    add Recovery "%s: recovery failed: %s" sname
                      (Recover.error_to_string e)
              | Recover.Undiagnosed e ->
                  add Recovery
                    "%s: faulted run failed without a resource-failure \
                     diagnosis: %s"
                    sname
                    (Sim.Platform_sim.error_to_string e)
              | Recover.Repaired (_report, repaired) -> (
                  (* the bound check already ran inside [Recover.run];
                     replay the repaired design data-dependent to check it
                     still computes the same function *)
                  match
                    Sim.Platform_sim.run repaired ~iterations:n
                      ~max_cycles:options.max_cycles ()
                  with
                  | Error e ->
                      add Recovery "%s: repaired design failed to run: %s"
                        sname
                        (Sim.Platform_sim.error_to_string e)
                  | Ok rrun ->
                      if rrun.iterations <> n then
                        add Recovery
                          "%s: repaired design completed %d of %d iterations"
                          sname rrun.iterations n;
                      Array.iteri
                        (fun i q ->
                          let name = actor_name i in
                          let fired = count_of name rrun.firing_counts in
                          if fired < n * q then
                            add Recovery
                              "%s: %s fired %d times on the repaired \
                               platform, iteration count requires at least \
                               %d"
                              sname name fired (n * q))
                        w.repetition;
                      (* token values are a pure function of the firing
                         index (SDF determinacy), so a channel whose
                         endpoint actors fired equally often in both
                         designs must hold identical tokens afterwards —
                         run-ahead differences make other channels
                         incomparable *)
                      let graph =
                        Appmodel.Application.graph w.application
                      in
                      let fired counts id =
                        count_of (actor_name id) counts
                      in
                      List.iter
                        (fun (ch, toks) ->
                          match
                            ( Sdf.Graph.find_channel graph ch,
                              List.assoc_opt ch run.final_local_tokens )
                          with
                          | Some c, Some toks'
                            when fired run.firing_counts c.Sdf.Graph.source
                                 = fired rrun.firing_counts
                                     c.Sdf.Graph.source
                                 && fired run.firing_counts c.Sdf.Graph.target
                                    = fired rrun.firing_counts
                                        c.Sdf.Graph.target
                                 && toks <> toks' ->
                              add Recovery
                                "%s: channel %s holds different tokens \
                                 after repair"
                                sname ch
                          | _ -> ())
                        rrun.final_local_tokens))));
      (* Oracle 5: the DSE front is a front. *)
      if options.dse_every > 0 && w.seed mod options.dse_every = 0 then begin
        let points, _failures =
          Core.Dse.explore w.application ~options:(flow_options options)
            ~tile_counts:[ 1; 2 ]
            ~interconnects:[ interconnect ] ()
        in
        let front = Core.Dse.pareto points in
        let guarantee_of (p : Core.Dse.point) = p.guarantee in
        List.iter
          (fun p ->
            if guarantee_of p = None then
              add Pareto_consistency
                "front contains a %d-tile point without a guarantee"
                p.Core.Dse.tile_count)
          front;
        let dominates (p : Core.Dse.point) (q : Core.Dse.point) =
          match (p.guarantee, q.guarantee) with
          | Some gp, Some gq ->
              Rational.compare gp gq >= 0
              && p.slices <= q.slices
              && (Rational.compare gp gq > 0 || p.slices < q.slices)
          | _ -> false
        in
        List.iter
          (fun p ->
            List.iter
              (fun q ->
                if p != q && dominates p q then
                  add Pareto_consistency
                    "%d-tile point dominates %d-tile point on the front"
                    p.Core.Dse.tile_count q.Core.Dse.tile_count)
              front)
          front;
        if List.exists (fun p -> not (List.memq p points)) front then
          add Pareto_consistency "front contains a point not in the sweep"
      end);
  {
    c_seed = w.seed;
    c_interconnect = Core.Dse.interconnect_label interconnect;
    c_actors = Array.length w.spec.sp_q;
    c_channels =
      Array.length w.spec.sp_q - 1 + List.length w.spec.sp_extra;
    c_tightness = !tightness;
    c_violations = List.rev !violations;
  }

let check_seed ?(options = default_options) seed =
  check_workload ~options
    (interconnect_for_seed seed)
    (W.generate ~config:options.gen_config ~seed ())

(* --- reporting ------------------------------------------------------------ *)

type failure = {
  f_case : case;
  f_spec : W.spec;
  f_shrunk : Shrink.outcome;
  f_reproducer : string option;
}

type report = {
  r_cases : case list;
  r_failures : failure list;
  r_mean_tightness : float;
  r_max_tightness : float;
}

let passed r = r.r_failures = []

let pp_case ppf c =
  Format.fprintf ppf "seed %d [%s, %d actors, %d channels]%s: %s" c.c_seed
    c.c_interconnect c.c_actors c.c_channels
    (match c.c_tightness with
    | Some t -> Printf.sprintf " tightness %.3f" t
    | None -> "")
    (if c.c_violations = [] then "ok"
     else
       String.concat "; "
         (List.map
            (fun v -> Format.asprintf "%a" Oracle.pp_violation v)
            c.c_violations))

let pp_report ppf r =
  let n = List.length r.r_cases in
  Format.fprintf ppf "@[<v>%d cases, %d failures" n
    (List.length r.r_failures);
  if r.r_max_tightness > 0. then
    Format.fprintf ppf ", tightness mean %.3f max %.3f" r.r_mean_tightness
      r.r_max_tightness;
  List.iter
    (fun f -> Format.fprintf ppf "@,%a" pp_case f.f_case)
    r.r_failures;
  Format.fprintf ppf "@]"

(* --- reproducers ---------------------------------------------------------- *)

let mkdir_p dir =
  let rec ensure d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      ensure (Filename.dirname d);
      (* tolerate a concurrent shard creating the shared parent between the
         existence check and the mkdir *)
      try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
    end
  in
  ensure dir

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let write_reproducer ~out_dir case spec (shrunk : Shrink.outcome) =
  let oracle =
    match case.c_violations with
    | v :: _ -> v.Oracle.oracle
    | [] -> invalid_arg "write_reproducer: case has no violation"
  in
  let dir =
    Filename.concat out_dir
      (Printf.sprintf "seed%d_%s" case.c_seed (Oracle.name oracle))
  in
  mkdir_p dir;
  Sdf.Xmlio.to_file
    (W.graph_of_spec shrunk.shrunk)
    (Filename.concat dir "graph.xml");
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "conformance counterexample";
  line "";
  line "seed:         %d" case.c_seed;
  line "interconnect: %s" case.c_interconnect;
  line "violations:";
  List.iter
    (fun v -> line "  %s" (Format.asprintf "%a" Oracle.pp_violation v))
    case.c_violations;
  line "";
  line "original spec:";
  line "%s" (W.spec_to_string spec);
  line "";
  line "shrunk spec (%d steps, %d attempts):" shrunk.steps shrunk.attempts;
  line "%s" (W.spec_to_string shrunk.shrunk);
  line "";
  line "the shrunk graph is in graph.xml next to this file.";
  line "replay with:";
  line "  dune exec bin/mamps_flow.exe -- conformance --replay %d"
    case.c_seed;
  write_file (Filename.concat dir "case.txt") (Buffer.contents buf);
  dir

(* --- the suite ------------------------------------------------------------ *)

let run_suite ?(options = default_options) ?(out_dir = "_conformance")
    ?(progress = fun _ -> ()) ?(jobs = 1) ?cancel ~base_seed ~count () =
  (* one task per seed: check, and on violation shrink + write the
     reproducer from inside the task. Reproducer directories are keyed by
     seed and oracle, so concurrent shards never write the same path. *)
  let eval seed =
    let interconnect = interconnect_for_seed seed in
    let workload = W.generate ~config:options.gen_config ~seed () in
    let evaluate () =
      let case = check_workload ~options interconnect workload in
      let failure =
        if case.c_violations = [] then None
        else begin
          let oracles =
            List.map (fun v -> v.Oracle.oracle) case.c_violations
          in
          let still_fails sp =
            let c = check_workload ~options interconnect (W.realize sp) in
            List.exists
              (fun v -> List.mem v.Oracle.oracle oracles)
              c.c_violations
          in
          (* if the per-seed budget expires mid-shrink, every further
             candidate check raises and [minimize] counts it as "does not
             fail", so shrinking still terminates promptly *)
          let shrunk = Shrink.minimize ~still_fails workload.spec in
          let dir = write_reproducer ~out_dir case workload.spec shrunk in
          Some
            {
              f_case = case;
              f_spec = workload.spec;
              f_shrunk = shrunk;
              f_reproducer = Some dir;
            }
        end
      in
      (case, failure)
    in
    match options.seed_timeout with
    | None -> evaluate ()
    | Some t -> (
        let scope = Exec.Budget.scope ~deadline:(Exec.Budget.after t) () in
        try Exec.Budget.with_scope scope evaluate
        with Exec.Budget.Expired _ ->
          (* one hanging workload fails its own seed — with a reproducer —
             instead of hanging the suite. The detail mentions only the
             configured budget, never measured time, so reports stay
             byte-identical at any -j. *)
          let case =
            {
              c_seed = seed;
              c_interconnect = Core.Dse.interconnect_label interconnect;
              c_actors = Array.length workload.spec.sp_q;
              c_channels =
                Array.length workload.spec.sp_q - 1
                + List.length workload.spec.sp_extra;
              c_tightness = None;
              c_violations =
                [
                  {
                    Oracle.oracle = Seed_timeout;
                    detail =
                      Printf.sprintf "seed evaluation exceeded its %gs budget"
                        t;
                  };
                ];
            }
          in
          let shrunk =
            { Shrink.shrunk = workload.spec; steps = 0; attempts = 0 }
          in
          let dir = write_reproducer ~out_dir case workload.spec shrunk in
          ( case,
            Some
              {
                f_case = case;
                f_spec = workload.spec;
                f_shrunk = shrunk;
                f_reproducer = Some dir;
              } ))
  in
  let seeds = List.init count (fun i -> base_seed + i) in
  (* a set token (the CLI's SIGINT path) skips every seed that has not
     started yet; the report then covers exactly the evaluated prefix *)
  let cancelled () =
    match cancel with
    | None -> false
    | Some token -> Exec.Budget.cancelled token
  in
  let evaluated =
    if jobs <= 1 then
      (* sequential: stream [progress] as each seed completes, as before *)
      List.filter_map
        (fun seed ->
          if cancelled () then None
          else begin
            let ((case, _) as r) = eval seed in
            progress case;
            Some r
          end)
        seeds
    else begin
      let rs =
        Exec.Pool.with_pool ~jobs (fun pool ->
            Exec.Pool.map pool
              (fun seed -> if cancelled () then None else Some (eval seed))
              seeds)
        |> List.filter_map Fun.id
      in
      (* progress fires after the parallel round, in seed order, so the
         callback needs no synchronization of its own *)
      List.iter (fun (case, _) -> progress case) rs;
      rs
    end
  in
  let cases = List.map fst evaluated in
  let failures = List.filter_map snd evaluated in
  let ratios = List.filter_map (fun c -> c.c_tightness) cases in
  let mean =
    match ratios with
    | [] -> 0.
    | _ ->
        List.fold_left ( +. ) 0. ratios /. float_of_int (List.length ratios)
  in
  {
    r_cases = cases;
    r_failures = failures;
    r_mean_tightness = mean;
    r_max_tightness = List.fold_left Float.max 0. ratios;
  }

(* --- the deliberate counterexample ---------------------------------------- *)

let undersize g =
  Sdf.Buffers.with_capacities g (fun c ->
      Some (Stdlib.max c.initial_tokens (Sdf.Buffers.lower_bound c - 1)))

let undersized_deadlocks sp =
  not (Sdf.Execution.deadlock_free (undersize (W.graph_of_spec sp)))

let shrink_undersized ?config ?(out_dir = "_conformance") ~seed () =
  let spec = W.spec_of_seed ?config seed in
  if not (undersized_deadlocks spec) then
    invalid_arg "shrink_undersized: the undersized workload does not deadlock";
  let shrunk = Shrink.minimize ~still_fails:undersized_deadlocks spec in
  let w = W.realize spec in
  let case =
    {
      c_seed = seed;
      c_interconnect = "n/a";
      c_actors = Array.length w.spec.sp_q;
      c_channels = Array.length w.spec.sp_q - 1 + List.length w.spec.sp_extra;
      c_tightness = None;
      c_violations =
        [
          {
            Oracle.oracle = No_deadlock;
            detail =
              "deliberately undersized buffers (lower bound - 1) deadlock";
          };
        ];
    }
  in
  let dir = write_reproducer ~out_dir case spec shrunk in
  (shrunk, dir)
