(* Command-line driver for the automated design flow.

   Subcommands:
     graph FILE.xml      analyse an SDF graph in the common input format
     mjpeg               run the full flow on the MJPEG case study and
                         optionally write the generated MAMPS project
     dse                 sweep tile counts and interconnects and print the
                         guarantee/area Pareto front
     experiments         reproduce the paper's evaluation tables
     conformance         differential conformance suite on seeded random
                         SDF workloads, with shrinking reproducers
     recover             inject a permanent tile/link fault, diagnose the
                         stall, re-map around the dead resource and
                         re-verify the degraded guarantee
     serve               long-running HTTP daemon answering mapping/DSE
                         requests with a bounded queue and a crash journal

   The dse, conformance, profile and recover subcommands take -j N to fan their
   independent work out over N domains (Exec.Pool); -j 1 — the default —
   is sequential and byte-identical to the pre-parallel behaviour.

   Exit codes are uniform across subcommands:
     0  success
     2  error: invalid input, unknown name, or the flow itself failed
     3  partial result: a deadline fired or the run was interrupted
        (SIGINT); whatever was computed has been printed/checkpointed
     4  a check failed: conformance violations, --assert-scaling
        regression, an unsurvived recovery scenario
   (cmdliner keeps 124 for command-line parse errors.) *)

open Cmdliner

let exit_error = 2
let exit_partial = 3
let exit_gate = 4

(* install a SIGINT handler that cancels [token] so budgeted loops wind
   down cleanly (flushing their checkpoints); a second ^C kills the
   process the traditional way *)
let cancel_on_sigint token =
  let fired = ref false in
  try
    Sys.set_signal Sys.sigint
      (Sys.Signal_handle
         (fun _ ->
           if !fired then exit 130
           else begin
             fired := true;
             Exec.Budget.cancel token
           end))
  with Invalid_argument _ | Sys_error _ -> ()

(* shared -j flag: resolved by Exec.Pool.parallelism, so an absent flag
   falls back to MAMPS_JOBS and then to the sequential default of 1 *)
let jobs_term =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the parallel sections. Default 1 \
           (sequential); $(b,0) means one domain per core; when the flag \
           is absent the $(b,MAMPS_JOBS) environment variable is \
           consulted first. Reports are byte-identical for every value.")

let resolve_jobs jobs = Exec.Pool.parallelism ?jobs ~default:1 ()

(* shared --no-memo flag: clears the [memo] field of the flow options the
   command builds, so its analyses bypass the worst-case-analysis cache.
   Results are byte-identical either way (the cache key covers every
   analysis input), so the flag only trades time for memory — and gives
   CI a way to prove that equivalence. *)
let no_memo_term =
  Arg.(
    value & flag
    & info [ "no-memo" ]
        ~doc:
          "Disable the shared worst-case-analysis cache and recompute \
           every throughput analysis from scratch. The report is \
           byte-identical with or without the cache; the flag only \
           trades time for memory.")

(* shared --analysis flag: worst-case throughput analysis method. Both
   methods return the same exact bound (a conformance oracle and a
   property test pin that), so the flag only trades analysis time. *)
let analysis_term_with ~default =
  let methods =
    [ ("state-space", `State_space); ("mcm", `Mcm); ("auto", `Auto) ]
  in
  let default_name =
    List.find (fun (_, m) -> m = default) methods |> fst
  in
  Arg.(
    value
    & opt (enum methods) default
    & info [ "analysis" ] ~docv:"METHOD"
        ~doc:
          (Printf.sprintf
             "Worst-case throughput analysis method: $(b,state-space) \
              (simulate to a state recurrence), $(b,mcm) (symbolic \
              (max,+): HSDF expansion + maximum cycle mean, falling back \
              to the state space when the expansion does not apply), or \
              $(b,auto) (mcm when applicable). Default $(b,%s). Every \
              method returns the same exact throughput bound; only the \
              reported transient differs (mcm does not model the \
              start-up phase)."
             default_name))

let analysis_term = analysis_term_with ~default:`State_space

(* the DSE inner loop re-analyses the same graphs at many (tile count,
   interconnect) points, which is exactly where the cheaper symbolic
   method pays — so the sweep defaults to auto; --analysis state-space
   remains the escape hatch *)
let analysis_auto_term = analysis_term_with ~default:`Auto

(* --- graph ------------------------------------------------------------------ *)

let analyse_graph path dot_output =
  match Sdf.Xmlio.of_file path with
  | Error msg ->
      Printf.eprintf "cannot read %s: %s\n" path msg;
      exit_error
  | Ok g -> (
      Format.printf "%a@.@." Sdf.Graph.pp g;
      (match Sdf.Analysis.admit g with
      | Error e ->
          Format.printf "rejected by the flow: %a@." Sdf.Analysis.pp_admission_error e
      | Ok q ->
          Format.printf "repetition vector:";
          List.iter
            (fun (a : Sdf.Graph.actor) ->
              Format.printf " %s=%d" a.actor_name q.(a.actor_id))
            (Sdf.Graph.actors g);
          Format.printf "@.self-timed: %a@." Sdf.Throughput.pp_result
            (Sdf.Throughput.analyse g));
      match dot_output with
      | None -> 0
      | Some out ->
          Sdf.Dot.to_file g out;
          Printf.printf "wrote %s\n" out;
          0)

let graph_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"SDF graph in the flow's XML format.")
  in
  let dot =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"OUT" ~doc:"Also write a Graphviz rendering.")
  in
  Cmd.v
    (Cmd.info "graph" ~doc:"Analyse an SDF graph file")
    Term.(const analyse_graph $ path $ dot)

(* --- mjpeg ------------------------------------------------------------------- *)

let interconnect_of = function
  | `Fsl -> Arch.Template.Use_fsl Arch.Fsl.default
  | `Noc -> Arch.Template.Use_noc Arch.Noc.default_config

(* re-run the measured platform under a fault scenario and report the
   throughput degradation against the SDF3 guarantee *)
let report_faulted flow baseline ~iterations spec =
  Format.printf "@.injecting faults: %a@." Sim.Fault.pp_spec spec;
  match Core.Design_flow.measure flow ~iterations ~faults:spec () with
  | Error e -> (
      match Core.Flow_error.deadlock_diagnosis e with
      | Some d ->
          Format.printf "fault scenario stalled the platform:@.%s@."
            (Sim.Diagnosis.report d);
          0
      | None ->
          Printf.eprintf "faulted run failed: %s\n"
            (Core.Flow_error.to_string e);
          exit_error)
  | Ok faulted ->
      let base = Sim.Platform_sim.steady_throughput baseline in
      let under = Sim.Platform_sim.steady_throughput faulted in
      let degradation =
        if Sdf.Rational.sign base > 0 then
          (1.0 -. (Sdf.Rational.to_float under /. Sdf.Rational.to_float base))
          *. 100.0
        else 0.0
      in
      Format.printf
        "measured under faults: %.4f MCU/MHz/s (%.1f%% degradation)@."
        (Core.Report.mcus_per_mhz_second under)
        degradation;
      (match flow.Core.Design_flow.guarantee with
      | Some g ->
          Format.printf "SDF3 guarantee %s under this scenario@."
            (if Sdf.Rational.compare under g >= 0 then "still holds"
             else "VIOLATED")
      | None -> ());
      (match faulted.Sim.Platform_sim.fault_events with
      | [] -> ()
      | events ->
          Format.printf "injected: %s@."
            (String.concat ", "
               (List.map
                  (fun (k, v) -> Printf.sprintf "%s=%d" k v)
                  events)));
      0

let run_mjpeg interconnect sequence output passes trace_out faults seed
    analysis =
  match Mjpeg.Streams.by_name sequence with
  | None ->
      Printf.eprintf "unknown sequence %S; available: %s\n" sequence
        (String.concat ", "
           (List.map
              (fun s -> s.Mjpeg.Streams.seq_name)
              (Mjpeg.Streams.all ())));
      exit_error
  | Some seq -> (
      match Option.map (Sim.Fault.scenario ~seed) faults with
      | Some (Error msg) ->
          Printf.eprintf "%s\navailable fault scenarios:\n" msg;
          List.iter
            (fun (name, doc) -> Printf.eprintf "  %-12s %s\n" name doc)
            (Sim.Fault.scenario_descriptions ());
          exit_error
      | (None | Some (Ok _)) as resolved -> (
          let spec =
            match resolved with Some (Ok s) -> Some s | _ -> None
          in
          let ( let* ) = Result.bind in
          let result =
            let* app = Experiments.calibrated_mjpeg seq in
            let* flow =
              Result.map_error Core.Flow_error.to_string
                (Core.Design_flow.run_auto app
                   ~options:(Experiments.flow_options_with ~analysis ())
                   (interconnect_of interconnect) ())
            in
            let iterations = passes * Mjpeg.Streams.mcus seq in
            let collector = Sim.Trace.create () in
            let trace =
              Option.map (fun _ -> Sim.Trace.sink collector) trace_out
            in
            let* measured =
              Result.map_error Core.Flow_error.to_string
                (Core.Design_flow.measure flow ~iterations ?trace ())
            in
            (match trace_out with
            | None -> ()
            | Some path ->
                let oc = open_out path in
                Fun.protect
                  ~finally:(fun () -> close_out oc)
                  (fun () -> output_string oc (Sim.Trace.to_vcd collector));
                Printf.printf "wrote %d busy intervals to %s\n"
                  (Sim.Trace.span_count collector)
                  path);
            Ok (flow, measured, iterations)
          in
          match result with
          | Error msg ->
              Printf.eprintf "flow failed: %s\n" msg;
              exit_error
          | Ok (flow, measured, iterations) ->
              Format.printf "%a@.@." Mapping.Flow_map.pp_summary
                flow.Core.Design_flow.mapping;
              Format.printf "automated steps:@.%a@.@." Core.Design_flow.pp_times
                flow.Core.Design_flow.times;
              (match flow.Core.Design_flow.guarantee with
              | Some g ->
                  Format.printf
                    "guaranteed throughput: %s MCU/cycle (%.4f MCU/MHz/s)@."
                    (Sdf.Rational.to_string g)
                    (Core.Report.mcus_per_mhz_second g)
              | None -> Format.printf "no throughput guarantee@.");
              Format.printf
                "measured on the platform (%d MCUs): %.4f MCU/MHz/s@."
                measured.Sim.Platform_sim.iterations
                (Core.Report.mcus_per_mhz_second
                   (Sim.Platform_sim.steady_throughput measured));
              (match output with
              | None -> ()
              | Some dir ->
                  Mamps.Project.write_to flow.Core.Design_flow.project ~dir;
                  Format.printf "MAMPS project written to %s (%d files)@." dir
                    (List.length
                       flow.Core.Design_flow.project.Mamps.Project.files));
              (match spec with
              | None -> 0
              | Some spec -> report_faulted flow measured ~iterations spec)))

let mjpeg_cmd =
  let interconnect =
    Arg.(
      value
      & opt (enum [ ("fsl", `Fsl); ("noc", `Noc) ]) `Fsl
      & info [ "interconnect"; "i" ] ~docv:"KIND"
          ~doc:"Interconnect: $(b,fsl) point-to-point or the $(b,noc).")
  in
  let sequence =
    Arg.(
      value
      & opt string "synthetic"
      & info [ "sequence"; "s" ] ~docv:"NAME"
          ~doc:"Test sequence to decode (see the paper's Figure 6).")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "output"; "o" ] ~docv:"DIR"
          ~doc:"Write the generated MAMPS project here.")
  in
  let passes =
    Arg.(
      value
      & opt int 4
      & info [ "passes" ] ~docv:"N"
          ~doc:"Stream passes to simulate when measuring.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE.vcd"
          ~doc:"Dump the platform execution as a VCD waveform.")
  in
  let faults =
    let doc =
      Printf.sprintf
        "After the clean run, re-measure under a seeded fault scenario and \
         report the degradation against the guarantee. One of: %s."
        (String.concat ", " (Sim.Fault.scenario_names ()))
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SCENARIO" ~doc)
  in
  let seed =
    Arg.(
      value
      & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:"Seed for the fault injection PRNG (runs are deterministic \
                per seed).")
  in
  Cmd.v
    (Cmd.info "mjpeg" ~doc:"Run the full flow on the MJPEG case study")
    Term.(
      const run_mjpeg $ interconnect $ sequence $ output $ passes $ trace
      $ faults $ seed $ analysis_term)

(* --- dse --------------------------------------------------------------------- *)

(* the paper's "very fast design space exploration", as a subcommand: sweep
   (tile count x interconnect) with one flow run per point — fanned out
   over -j domains — and print the guarantee/area Pareto front *)

(* the report both dse paths print: every point's row, the infeasible
   points, the Pareto front and the best point under --max-slices. [pp]
   renders the rows, [summary] projects one onto its deterministic part *)
let print_sweep pp ~summary ~pareto ~max_slices rows failures =
  Format.printf "%a@." pp rows;
  List.iter
    (fun (tiles, interc, reason) ->
      Printf.printf "infeasible: %d %s tile(s): %s\n" tiles interc reason)
    failures;
  Format.printf "@.Pareto front (guarantee vs. slices):@.%a@." pp (pareto rows);
  match max_slices with
  | None -> ()
  | Some budget -> (
      match
        Core.Dse.best_summary (List.map summary rows) ~max_slices:budget
      with
      | None -> Printf.printf "no feasible point within %d slices\n" budget
      | Some s ->
          Printf.printf "best under %d slices: %s with %d tile(s), %d slices\n"
            budget s.Core.Dse.s_interconnect s.s_tile_count s.s_slices)

(* budgeted sweep: print only deterministic tables on stdout — no wall
   times, no resumed counts — so a resumed run's report is byte-identical
   to an uninterrupted one *)
let run_dse_anytime app ~interconnects ~tile_counts ~max_slices ~options ~jobs
    ~deadline ~task_timeout ~retries ~checkpoint ~resume =
  let metrics = Obs.Metrics.create () in
  let deadline = Option.map Exec.Budget.after deadline in
  let retry =
    Option.map (fun n -> Exec.Pool.retry ~max_attempts:n ()) retries
  in
  (* first ^C cancels the sweep between chunks — the checkpoint already on
     disk covers everything evaluated so far, so --resume picks up exactly
     where the interrupt landed; a second ^C kills the process outright *)
  let cancel = Exec.Budget.token () in
  cancel_on_sigint cancel;
  match
    Core.Dse.explore_anytime app ?tile_counts ~interconnects ~options ~jobs
      ?deadline ?task_timeout ?retry ~cancel ?checkpoint ?resume ~metrics ()
  with
  | Error msg ->
      Printf.eprintf "dse: %s\n" msg;
      exit_error
  | Ok a ->
      let summaries = a.Core.Dse.a_summaries in
      print_sweep Core.Dse.pp_summary_table ~summary:Fun.id
        ~pareto:Core.Dse.pareto_summaries ~max_slices summaries
        a.Core.Dse.a_failures;
      Printf.printf "%d design point(s), %d infeasible\n"
        (List.length summaries)
        (List.length a.Core.Dse.a_failures);
      if a.Core.Dse.a_resumed > 0 then
        Printf.eprintf "resumed %d point(s) from checkpoint\n"
          a.Core.Dse.a_resumed;
      List.iter
        (fun (name, v) ->
          if v > 0 then Printf.eprintf "%s: %d\n" name v)
        (Obs.Metrics.counters metrics);
      (match a.Core.Dse.a_degradation with
      | None -> 0
      | Some d ->
          Format.printf "%a@." Core.Dse.pp_degradation d;
          exit_partial)

(* CI gate (--assert-scaling): run the same sweep sequentially and then on
   the requested pool in one process and require that the parallel-path
   fixes actually pay — the second pass (clamped pool + warm analysis
   cache) must be strictly faster, and its Pareto front byte-identical to
   the sequential one. Exit 4 on a regression so the job fails loudly. *)
let run_dse_assert_scaling app ~interconnects ~tile_counts ~options ~jobs =
  if jobs < 2 then begin
    Printf.eprintf "dse: --assert-scaling needs -j 2 or more (got %d)\n" jobs;
    exit_error
  end
  else begin
    let sweep jobs =
      let start = Exec.Clock.now () in
      let points, _failures =
        Core.Dse.explore app ?tile_counts ~interconnects ~options ~jobs ()
      in
      let seconds = Exec.Clock.elapsed_since start in
      (* compare the deterministic rendering: the summary table carries
         no per-point wall times, so equal fronts diff byte-identically *)
      let front =
        Format.asprintf "%a" Core.Dse.pp_summary_table
          (Core.Dse.pareto_summaries (List.map Core.Dse.summarize points))
      in
      (seconds, front)
    in
    let seq_s, seq_front = sweep 1 in
    let par_s, par_front = sweep jobs in
    Printf.printf "sequential (-j 1):  %.2f s\nparallel   (-j %d):  %.2f s\n"
      seq_s jobs par_s;
    let identical = String.equal seq_front par_front in
    let faster = par_s < seq_s in
    if identical then print_string "Pareto fronts byte-identical\n"
    else print_string "Pareto fronts DIFFER (determinism violation)\n";
    if faster then
      Printf.printf "speedup x%.2f\n" (if par_s > 0. then seq_s /. par_s else 0.)
    else
      Printf.printf "parallel pass NOT faster (x%.2f)\n"
        (if par_s > 0. then seq_s /. par_s else 0.);
    if identical && faster then 0 else exit_gate
  end

let run_dse interconnect sequence max_tiles max_slices jobs deadline
    task_timeout retries checkpoint resume no_memo assert_scaling analysis =
  let jobs = resolve_jobs jobs in
  match Mjpeg.Streams.by_name sequence with
  | None ->
      Printf.eprintf "unknown sequence %S; available: %s\n" sequence
        (String.concat ", "
           (List.map
              (fun s -> s.Mjpeg.Streams.seq_name)
              (Mjpeg.Streams.all ())));
      exit_error
  | Some seq -> (
      match Experiments.calibrated_mjpeg seq with
      | Error e ->
          Printf.eprintf "flow failed: %s\n" e;
          exit_error
      | Ok app ->
          let interconnects =
            match interconnect with
            | `Fsl -> [ Arch.Template.Use_fsl Arch.Fsl.default ]
            | `Noc -> [ Arch.Template.Use_noc Arch.Noc.default_config ]
            | `Both ->
                [
                  Arch.Template.Use_fsl Arch.Fsl.default;
                  Arch.Template.Use_noc Arch.Noc.default_config;
                ]
          in
          let tile_counts =
            Option.map (fun n -> List.init n (fun i -> i + 1)) max_tiles
          in
          let options =
            {
              (Experiments.flow_options_with ~analysis ()) with
              Mapping.Flow_map.memo = not no_memo;
            }
          in
          if assert_scaling then
            run_dse_assert_scaling app ~interconnects ~tile_counts ~options
              ~jobs
          else if
            deadline <> None || task_timeout <> None || retries <> None
            || checkpoint <> None || resume <> None
          then
            run_dse_anytime app ~interconnects ~tile_counts ~max_slices
              ~options ~jobs ~deadline ~task_timeout ~retries ~checkpoint
              ~resume
          else begin
            let start = Exec.Clock.now () in
            let points, failures =
              Core.Dse.explore app ?tile_counts ~interconnects ~options ~jobs ()
            in
            let seconds = Exec.Clock.elapsed_since start in
            print_sweep Core.Dse.pp_table ~summary:Core.Dse.summarize
              ~pareto:Core.Dse.pareto ~max_slices points failures;
            Printf.printf
              "%d design point(s), %d infeasible, %.2f s wall on %d domain(s)\n"
              (List.length points) (List.length failures) seconds jobs;
            0
          end)

let dse_cmd =
  let interconnect =
    Arg.(
      value
      & opt (enum [ ("fsl", `Fsl); ("noc", `Noc); ("both", `Both) ]) `Both
      & info [ "interconnect"; "i" ] ~docv:"KIND"
          ~doc:"Interconnects to sweep: $(b,fsl), $(b,noc) or $(b,both).")
  in
  let sequence =
    Arg.(
      value
      & opt string "synthetic"
      & info [ "sequence"; "s" ] ~docv:"NAME"
          ~doc:"MJPEG test sequence the flow is calibrated against.")
  in
  let max_tiles =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-tiles" ] ~docv:"N"
          ~doc:
            "Sweep platforms of 1..$(docv) tiles (default: up to one tile \
             per actor).")
  in
  let max_slices =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-slices" ] ~docv:"N"
          ~doc:"Also report the best point within an area budget of \
                $(docv) slices.")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget for the whole sweep. When it fires the \
             command prints the partial result with a degradation report \
             and exits with status 3; combine with $(b,--checkpoint) to \
             make the partial sweep resumable.")
  in
  let task_timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "task-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget per design point; a point that exceeds it \
             is reported as a typed infeasibility instead of hanging the \
             sweep.")
  in
  let retries =
    Arg.(
      value
      & opt (some int) None
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Total attempts per design point (default 1): failing or \
             timed-out points are retried with deterministic exponential \
             backoff.")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Atomically rewrite $(docv) with the evaluated points after \
             every chunk; a later $(b,--resume) continues from it.")
  in
  let resume =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Adopt the evaluated points of a previous run's checkpoint and \
             evaluate only the remainder. The combined report is \
             byte-identical to an uninterrupted run.")
  in
  let assert_scaling =
    Arg.(
      value & flag
      & info [ "assert-scaling" ]
          ~doc:
            "CI gate: run the sweep at $(b,-j 1) and again at the \
             requested $(b,-j) in one process, then fail (exit 4) unless \
             the second pass is strictly faster and its Pareto front \
             byte-identical. Requires $(b,-j 2) or more.")
  in
  Cmd.v
    (Cmd.info "dse"
       ~doc:
         "Design-space exploration: run the full flow on every (tile \
          count, interconnect) candidate and print the guarantee/area \
          Pareto front"
       ~exits:
         (Cmd.Exit.info 3
            ~doc:
              "the $(b,--deadline) fired and the result is partial (a \
               degradation report is printed; resume from the checkpoint)"
         :: Cmd.Exit.info 4
              ~doc:
                "$(b,--assert-scaling) found a scaling or determinism \
                 regression"
         :: Cmd.Exit.defaults))
    Term.(
      const run_dse $ interconnect $ sequence $ max_tiles $ max_slices
      $ jobs_term $ deadline $ task_timeout $ retries $ checkpoint $ resume
      $ no_memo_term $ assert_scaling $ analysis_auto_term)

(* --- profile ----------------------------------------------------------------- *)

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  go dir

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

(* flow + one fully-probed measurement of either the MJPEG case study or a
   seeded conformance workload *)
let run_profile seed interconnect sequence passes iterations out_dir jobs
    no_memo analysis =
  let jobs = resolve_jobs jobs in
  let ( let* ) = Result.bind in
  let flow_err r = Result.map_error Core.Flow_error.to_string r in
  let memo = not no_memo in
  let result =
    match seed with
    | Some seed ->
        let w = Gen.Workload.generate ~seed () in
        let choice = Conformance.Engine.interconnect_for_seed seed in
        let* flow =
          flow_err
            (Core.Design_flow.run_auto w.Gen.Workload.application
               ~options:
                 { Mapping.Flow_map.default_options with analysis; memo }
               choice ())
        in
        let iters = Option.value iterations ~default:50 in
        let* p = flow_err (Core.Design_flow.profile flow ~iterations:iters ()) in
        Ok (Printf.sprintf "seed%d" seed, flow, p)
    | None -> (
        match Mjpeg.Streams.by_name sequence with
        | None ->
            Error
              (Printf.sprintf "unknown sequence %S; available: %s" sequence
                 (String.concat ", "
                    (List.map
                       (fun s -> s.Mjpeg.Streams.seq_name)
                       (Mjpeg.Streams.all ()))))
        | Some seq ->
            let* app = Experiments.calibrated_mjpeg seq in
            let* flow =
              flow_err
                (Core.Design_flow.run_auto app
                   ~options:
                     {
                       (Experiments.flow_options_with ~analysis ()) with
                       memo;
                     }
                   (interconnect_of interconnect) ())
            in
            let iters =
              Option.value iterations
                ~default:(passes * Mjpeg.Streams.mcus seq)
            in
            let* p =
              flow_err (Core.Design_flow.profile flow ~iterations:iters ())
            in
            Ok ("mjpeg-" ^ sequence, flow, p))
  in
  match result with
  | Error msg ->
      Printf.eprintf "profile failed: %s\n" msg;
      exit_error
  | Ok (label, flow, p) ->
      let report = Format.asprintf "%a" Core.Report.pp_profile (flow, p) in
      print_string report;
      print_newline ();
      mkdir_p out_dir;
      let path name = Filename.concat out_dir name in
      (* the three artifact renderings are independent pure functions of
         the finished trace, so -j fans them out over the pool *)
      let artifacts =
        [
          ("profile.txt", fun () -> report);
          ( "trace.json",
            fun () ->
              (* budget counters ride along as Chrome counter tracks *)
              let m = p.Core.Design_flow.pf_metrics in
              let counters =
                List.map (fun (n, v) -> ("exec." ^ n, v))
                  (Obs.Metrics.with_prefix m "exec")
                @ List.map (fun (n, v) -> ("dse." ^ n, v))
                    (Obs.Metrics.with_prefix m "dse")
                @ [ ("sim.cycles", Obs.Metrics.counter m "sim.cycles") ]
              in
              Sim.Trace.to_chrome_json ~process_name:label ~counters
                p.Core.Design_flow.pf_trace );
          ( "trace.vcd",
            fun () ->
              Sim.Trace.to_vcd ~design:"mamps_platform"
                p.Core.Design_flow.pf_trace );
        ]
      in
      let render (name, f) = (name, f ()) in
      let rendered =
        if jobs <= 1 then List.map render artifacts
        else
          Exec.Pool.with_pool ~jobs (fun pool ->
              Exec.Pool.map pool render artifacts)
      in
      List.iter
        (fun (name, contents) -> write_file (path name) contents)
        rendered;
      Printf.printf
        "wrote %s, %s (chrome://tracing) and %s (%d spans) for %s\n"
        (path "profile.txt") (path "trace.json") (path "trace.vcd")
        (Sim.Trace.span_count p.Core.Design_flow.pf_trace)
        label;
      0

let profile_cmd =
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Profile the seeded conformance workload $(docv) (interconnect \
             chosen as in the conformance matrix) instead of the MJPEG case \
             study.")
  in
  let interconnect =
    Arg.(
      value
      & opt (enum [ ("fsl", `Fsl); ("noc", `Noc) ]) `Fsl
      & info [ "interconnect"; "i" ] ~docv:"KIND"
          ~doc:"Interconnect for the MJPEG platform: $(b,fsl) or $(b,noc).")
  in
  let sequence =
    Arg.(
      value
      & opt string "synthetic"
      & info [ "sequence"; "s" ] ~docv:"NAME"
          ~doc:"MJPEG test sequence to profile.")
  in
  let passes =
    Arg.(
      value
      & opt int 2
      & info [ "passes" ] ~docv:"N"
          ~doc:"Stream passes to simulate (MJPEG profile).")
  in
  let iterations =
    Arg.(
      value
      & opt (some int) None
      & info [ "iterations" ] ~docv:"N"
          ~doc:"Override the number of simulated graph iterations.")
  in
  let out_dir =
    Arg.(
      value
      & opt string "_profile"
      & info [ "out"; "o" ] ~docv:"DIR"
          ~doc:
            "Write $(b,profile.txt), $(b,trace.json) (Chrome tracing) and \
             $(b,trace.vcd) here.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Measure a platform with every probe armed: per-link utilization, \
          NoC hop loads, FIFO and descriptor-queue peaks, firing-latency \
          histograms, flow phase times — plus a Chrome trace of every \
          firing and token transfer")
    Term.(
      const run_profile $ seed $ interconnect $ sequence $ passes $ iterations
      $ out_dir $ jobs_term $ no_memo_term $ analysis_term)

(* --- experiments ------------------------------------------------------------------ *)

let run_experiments () =
  let ok = ref 0 in
  (match Experiments.figure6 (Arch.Template.Use_fsl Arch.Fsl.default) () with
  | Error e ->
      Printf.eprintf "figure 6a failed: %s\n" e;
      ok := exit_error
  | Ok results ->
      Format.printf "Figure 6a (FSL):@.%a@.@." Core.Report.pp_throughput_table
        (List.map (fun r -> r.Experiments.row) results));
  (match Experiments.table1 () with
  | Error e ->
      Printf.eprintf "table 1 failed: %s\n" e;
      ok := exit_error
  | Ok times ->
      Format.printf "Table 1:@.%a@.@." Core.Report.pp_effort_table times);
  let area = Experiments.noc_area () in
  Format.printf "NoC flow control: +%d%% slices (paper ~12%%)@."
    area.Experiments.overhead_percent;
  !ok

let experiments_cmd =
  Cmd.v
    (Cmd.info "experiments" ~doc:"Reproduce the paper's evaluation tables")
    Term.(const run_experiments $ const ())

(* --- conformance ------------------------------------------------------------- *)

let run_conformance count base_seed out_dir replay jobs seed_timeout no_memo
    analysis =
  let jobs = resolve_jobs jobs in
  let options =
    {
      Conformance.Engine.default_options with
      seed_timeout;
      memo = not no_memo;
      analysis;
    }
  in
  match replay with
  | Some seed ->
      (* one seed, full verdict — the reproducer replay path *)
      let case = Conformance.Engine.check_seed ~options seed in
      Format.printf "%a@." Conformance.Engine.pp_case case;
      if case.Conformance.Engine.c_violations = [] then 0 else exit_gate
  | None ->
      (* first ^C stops admitting new seeds; the report then covers the
         prefix already evaluated, which is still a valid (smaller) suite *)
      let cancel = Exec.Budget.token () in
      cancel_on_sigint cancel;
      let report =
        Conformance.Engine.run_suite ~options ~out_dir ~jobs ~cancel ~base_seed
          ~count
          ~progress:(fun c ->
            if c.Conformance.Engine.c_violations <> [] then
              Format.eprintf "%a@." Conformance.Engine.pp_case c)
          ()
      in
      Format.printf "%a@." Conformance.Engine.pp_report report;
      let interrupted = Exec.Budget.cancelled cancel in
      if interrupted then
        Printf.eprintf
          "interrupted: %d of %d seed(s) evaluated before SIGINT\n"
          (List.length report.Conformance.Engine.r_cases)
          count;
      if not (Conformance.Engine.passed report) then begin
        List.iter
          (fun f ->
            match f.Conformance.Engine.f_reproducer with
            | Some dir -> Printf.printf "reproducer: %s\n" dir
            | None -> ())
          report.Conformance.Engine.r_failures;
        exit_gate
      end
      else if interrupted then exit_partial
      else 0

let conformance_cmd =
  let count =
    Arg.(
      value & opt int 200
      & info [ "count" ] ~docv:"N"
          ~doc:"Number of seeded random workloads to check.")
  in
  let base_seed =
    Arg.(
      value & opt int 0
      & info [ "base-seed" ] ~docv:"N"
          ~doc:"First seed of the matrix; seeds run N .. N+count-1.")
  in
  let out_dir =
    Arg.(
      value & opt string "_conformance"
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Where failing cases write their shrunk reproducers.")
  in
  let replay =
    Arg.(
      value
      & opt (some int) None
      & info [ "replay" ] ~docv:"SEED"
          ~doc:"Re-check a single seed (as written in a reproducer's \
                case.txt) instead of running the matrix.")
  in
  let seed_timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "seed-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget per seed: a seed whose oracle evaluation \
             exceeds it fails with a $(b,seed-timeout) violation and a \
             reproducer instead of hanging the suite.")
  in
  Cmd.v
    (Cmd.info "conformance"
       ~doc:
         "Check the analysis, the functional engine and the platform \
          simulator against each other on seeded random SDF workloads")
    Term.(
      const run_conformance $ count $ base_seed $ out_dir $ replay
      $ jobs_term $ seed_timeout $ no_memo_term $ analysis_term)

(* --- recover ----------------------------------------------------------------- *)

(* "A->B" is a directed mesh hop; anything else names a point-to-point
   (FSL) channel *)
let link_scenario ~at_cycle s =
  match Scanf.sscanf_opt s " %d->%d %!" (fun a b -> (a, b)) with
  | Some hop -> Recover.Kill_hop { hop; at_cycle }
  | None -> Recover.Kill_channel { channel = s; at_cycle }

let outcome_json scenario outcome =
  let module Json = Jsonkit.Json in
  (* Report.to_json already returns serialized JSON; re-parse it so the
     outcome document nests it structurally instead of by string splicing *)
  let report_value s =
    match Json.of_string s with Ok v -> v | Error _ -> Json.String s
  in
  let fields =
    match (outcome : Recover.outcome) with
    | Recover.Tolerated _ -> [ ("outcome", Json.String "tolerated") ]
    | Recover.Repaired (report, _) ->
        [
          ("outcome", Json.String "repaired");
          ("report", report_value (Recover.Report.to_json report));
        ]
    | Recover.Unrepairable e ->
        [
          ("outcome", Json.String "unrepairable");
          ("typed", Json.Bool (Recover.typed_unrepairable e));
          ("error", Json.String (Recover.error_to_string e));
        ]
    | Recover.Undiagnosed e ->
        [
          ("outcome", Json.String "undiagnosed");
          ("error", Json.String (Sim.Platform_sim.error_to_string e));
        ]
  in
  Json.to_string
    (Json.Obj
       (("scenario", Json.String (Recover.scenario_name scenario)) :: fields))

let run_recover interconnect sequence tiles kill_tile kill_link at_cycle sweep
    passes out_dir jobs =
  let jobs = resolve_jobs jobs in
  match Mjpeg.Streams.by_name sequence with
  | None ->
      Printf.eprintf "unknown sequence %S; available: %s\n" sequence
        (String.concat ", "
           (List.map
              (fun s -> s.Mjpeg.Streams.seq_name)
              (Mjpeg.Streams.all ())));
      exit_error
  | Some seq -> (
      let ( let* ) = Result.bind in
      let result =
        let* app = Experiments.calibrated_mjpeg seq in
        Result.map_error Core.Flow_error.to_string
          (Core.Design_flow.run_auto app ?tiles
             (interconnect_of interconnect) ())
      in
      match result with
      | Error msg ->
          Printf.eprintf "flow failed: %s\n" msg;
          exit_error
      | Ok flow -> (
          let mapping = flow.Core.Design_flow.mapping in
          let iterations = passes * Mjpeg.Streams.mcus seq in
          let scenarios =
            if sweep then Recover.scenarios ~at_cycle mapping
            else
              (match kill_tile with
              | Some tile -> [ Recover.Kill_tile { tile; at_cycle } ]
              | None -> [])
              @
              match kill_link with
              | Some s -> [ link_scenario ~at_cycle s ]
              | None -> []
          in
          (* a typo'd channel name or an off-mesh hop would never bite and
             report as "tolerated" — reject it before running anything *)
          let graph = mapping.Mapping.Flow_map.timed_graph in
          let tile_count =
            Arch.Platform.tile_count mapping.Mapping.Flow_map.platform
          in
          let rejections =
            List.filter_map
              (function
                | Recover.Kill_channel { channel; _ }
                  when Sdf.Graph.find_channel graph channel = None ->
                    Some
                      (Printf.sprintf "unknown channel %S; channels: %s" channel
                         (String.concat ", "
                            (List.map
                               (fun (c : Sdf.Graph.channel) ->
                                 c.Sdf.Graph.channel_name)
                               (Sdf.Graph.channels graph))))
                | Recover.Kill_hop { hop = a, b; _ }
                  when a < 0 || b < 0 || a >= tile_count || b >= tile_count ->
                    Some
                      (Printf.sprintf
                         "hop %d->%d out of range for a %d-tile platform" a b
                         tile_count)
                | _ -> None)
              scenarios
          in
          match scenarios with
          | _ when rejections <> [] ->
              List.iter (Printf.eprintf "%s\n") rejections;
              exit_error
          | [] ->
              Printf.eprintf
                "nothing to inject: pass --kill-tile, --kill-link or --sweep\n";
              exit_error
          | scenarios ->
              (match flow.Core.Design_flow.guarantee with
              | Some g ->
                  Format.printf "healthy guarantee: %s MCU/cycle@."
                    (Sdf.Rational.to_string g)
              | None -> Format.printf "healthy design has no guarantee@.");
              let eval s =
                (s, Recover.evaluate_scenario mapping s ~iterations ())
              in
              (* the pool map preserves scenario order, so the report is
                 byte-identical for every -j *)
              let outcomes =
                if jobs <= 1 then List.map eval scenarios
                else
                  Exec.Pool.with_pool ~jobs (fun pool ->
                      Exec.Pool.map pool eval scenarios)
              in
              List.iter
                (fun (s, o) ->
                  Format.printf "%-14s %a@."
                    (Recover.scenario_name s)
                    Recover.pp_outcome o)
                outcomes;
              (match out_dir with
              | None -> ()
              | Some dir ->
                  mkdir_p dir;
                  List.iter
                    (fun (s, o) ->
                      write_file
                        (Filename.concat dir (Recover.scenario_name s ^ ".json"))
                        (outcome_json s o ^ "\n"))
                    outcomes;
                  Printf.printf "wrote %d report(s) to %s\n"
                    (List.length outcomes) dir);
              let bad =
                List.filter (fun (_, o) -> not (Recover.outcome_ok o)) outcomes
              in
              if bad = [] then 0
              else begin
                Printf.eprintf "%d scenario(s) were not survived cleanly\n"
                  (List.length bad);
                exit_gate
              end))

let recover_cmd =
  let interconnect =
    Arg.(
      value
      & opt (enum [ ("fsl", `Fsl); ("noc", `Noc) ]) `Noc
      & info [ "interconnect"; "i" ] ~docv:"KIND"
          ~doc:"Interconnect: $(b,fsl) point-to-point or the $(b,noc).")
  in
  let sequence =
    Arg.(
      value
      & opt string "synthetic"
      & info [ "sequence"; "s" ] ~docv:"NAME"
          ~doc:"MJPEG test sequence to decode while the fault bites.")
  in
  let tiles =
    Arg.(
      value
      & opt (some int) (Some 4)
      & info [ "tiles" ] ~docv:"N"
          ~doc:
            "Cap the generated platform at $(docv) tiles so actors share \
             PEs and a dead tile has somewhere to migrate to (default 4).")
  in
  let kill_tile =
    Arg.(
      value
      & opt (some int) None
      & info [ "kill-tile" ] ~docv:"N"
          ~doc:"Permanently fail tile $(docv).")
  in
  let kill_link =
    Arg.(
      value
      & opt (some string) None
      & info [ "kill-link" ] ~docv:"LINK"
          ~doc:
            "Permanently fail a link: $(b,A->B) is the directed NoC mesh \
             hop from tile A to tile B; any other value names a \
             point-to-point channel.")
  in
  let at_cycle =
    Arg.(
      value
      & opt int 0
      & info [ "at" ] ~docv:"CYCLE"
          ~doc:"Cycle at which the resource dies (default 0).")
  in
  let sweep =
    Arg.(
      value & flag
      & info [ "sweep" ]
          ~doc:
            "Inject every single-resource permanent fault the mapped \
             design can suffer, one scenario at a time.")
  in
  let passes =
    Arg.(
      value
      & opt int 1
      & info [ "passes" ] ~docv:"N"
          ~doc:"Stream passes to simulate per scenario.")
  in
  let out_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"DIR"
          ~doc:"Write one JSON recovery report per scenario here.")
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Self-healing: inject a permanent tile or link fault into the \
          mapped MJPEG platform, diagnose the stall, re-map around the \
          dead resource and re-verify the degraded guarantee")
    Term.(
      const run_recover $ interconnect $ sequence $ tiles $ kill_tile
      $ kill_link $ at_cycle $ sweep $ passes $ out_dir $ jobs_term)

(* --- serve ------------------------------------------------------------------- *)

let run_serve host port queue_capacity max_connections workers journal
    no_journal timeout max_body_mib =
  let journal_path =
    if no_journal then None
    else begin
      (* the default lives under _serve/ next to the other artefact dirs;
         create the parent so first launch does not need a manual mkdir *)
      let dir = Filename.dirname journal in
      (try if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
       with Unix.Unix_error _ -> ());
      Some journal
    end
  in
  let config =
    {
      Serve.Server.default_config with
      host;
      port;
      queue_capacity;
      max_connections;
      workers =
        (if workers <= 0 then Exec.Pool.parallelism ~default:2 ()
         else workers);
      journal_path;
      default_timeout = (if timeout <= 0. then None else Some timeout);
      max_body_bytes = max_body_mib * 1024 * 1024;
    }
  in
  match Serve.Server.create config with
  | Error msg ->
      Printf.eprintf "serve: %s\n" msg;
      exit_error
  | Ok server ->
      (* SIGTERM and SIGINT both drain: stop admission, finish the
         backlog under its budgets, close the journal, exit 0. drain
         only sets an atomic flag, so it is safe in a signal handler. *)
      let on_signal _ = Serve.Server.drain server in
      List.iter
        (fun s ->
          try Sys.set_signal s (Sys.Signal_handle on_signal)
          with Invalid_argument _ | Sys_error _ -> ())
        [ Sys.sigterm; Sys.sigint ];
      Printf.printf "listening on http://%s:%d (%d worker(s), queue %d, %s)\n%!"
        host
        (Serve.Server.port server)
        config.Serve.Server.workers config.Serve.Server.queue_capacity
        (match journal_path with
        | Some p -> "journal " ^ p
        | None -> "no journal");
      Serve.Server.run server;
      print_string "drained\n";
      0

let serve_cmd =
  let host =
    Arg.(
      value
      & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address.")
  in
  let port =
    Arg.(
      value
      & opt int 8124
      & info [ "port"; "p" ] ~docv:"PORT"
          ~doc:"TCP port; $(b,0) picks an ephemeral one (printed on start).")
  in
  let queue =
    Arg.(
      value
      & opt int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Admission bound: jobs admitted but not yet finished. A full \
             queue answers $(b,429) with $(b,Retry-After) instead of \
             accepting unbounded work.")
  in
  let max_conns =
    Arg.(
      value
      & opt int 32
      & info [ "max-conns" ] ~docv:"N"
          ~doc:"Concurrent connection threads before answering $(b,503).")
  in
  let workers =
    Arg.(
      value
      & opt int 2
      & info [ "workers"; "j" ] ~docv:"N"
          ~doc:
            "Executor domains running jobs off the queue ($(b,0) means \
             one per core).")
  in
  let journal =
    Arg.(
      value
      & opt string (Filename.concat "_serve" "journal.log")
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Job journal for crash safety: every transition is appended \
             here, and a restart replays it — queued jobs re-enqueue, \
             mid-flight ones report $(b,interrupted), finished ones \
             answer from the stored outcome.")
  in
  let no_journal =
    Arg.(
      value & flag
      & info [ "no-journal" ]
          ~doc:"Run without the journal (no crash safety).")
  in
  let timeout =
    Arg.(
      value
      & opt float 60.
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Default per-job budget (the watchdog) when a request names \
             none; a job over budget answers $(b,504), with the partial \
             DSE front where the anytime sweep produced one. \
             $(b,--timeout 0) disables it.")
  in
  let max_body =
    Arg.(
      value
      & opt int 4
      & info [ "max-body" ] ~docv:"MIB"
          ~doc:"Largest accepted request body, in MiB ($(b,413) beyond).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Mapping-as-a-service: a crash-safe, backpressured HTTP daemon \
          over the flow — POST an SDF graph to $(b,/jobs), poll or \
          $(b,wait=1) for the mapping result; $(b,/healthz), \
          $(b,/readyz) and $(b,/metrics) for operations")
    Term.(
      const run_serve $ host $ port $ queue $ max_conns $ workers $ journal
      $ no_journal $ timeout $ max_body)

let () =
  let doc =
    "An automated flow to map throughput-constrained applications to a MPSoC"
  in
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "mamps_flow" ~version:"1.0.0" ~doc)
          [
            graph_cmd;
            mjpeg_cmd;
            dse_cmd;
            profile_cmd;
            experiments_cmd;
            conformance_cmd;
            recover_cmd;
            serve_cmd;
          ]))
