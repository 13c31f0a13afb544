(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation section (see DESIGN.md section 4 for the index) and times the
   flow's automated steps with Bechamel.

   Output, in order:
     figure 2   the example SDF graph and its analyses
     figure 3   template tile variants and their area
     figure 4   the communication model inserted on a producer/consumer pair
     figure 5   the MJPEG application graph and its WCET table
     figure 6a  worst-case / expected / measured throughput, FSL platform
     figure 6b  the same on the SDM NoC platform
     table 1    designer effort (automated steps measured live)
     section 6.3    the communication-assist prediction study
     section 5.3.1  NoC flow-control area overhead
     profile        the probe-armed measurement behind `mamps_flow profile`
     microbenchmarks (Bechamel) for the flow's hot steps *)

open Bechamel
open Toolkit

let line () = print_endline (String.make 72 '=')

let section title =
  line ();
  Printf.printf "%s\n" title;
  line ()

(* --- BENCH.json ------------------------------------------------------------- *)

(* every measured quantity lands here and is written out as BENCH.json at
   the end, so the perf trajectory is tracked across PRs (schema in
   README). Schema v2: each entry carries a [value]/[unit] pair so
   dimensionless quantities (the recovery degradation ratios) are no
   longer mislabelled as seconds; timings additionally keep the v1
   [wall_seconds] field for downstream tooling. *)
let bench_entries : (string * float * string * int * int) list ref = ref []

let record ?(unit = "seconds") ~name ~value ~iterations ~domains () =
  bench_entries := (name, value, unit, iterations, domains) :: !bench_entries

let timed_section name f =
  let (), wall = Exec.Clock.timed f in
  record ~name ~value:wall ~iterations:1 ~domains:1 ()

let write_bench_json path =
  let module Json = Jsonkit.Json in
  let entries = List.rev !bench_entries in
  let n = List.length entries in
  let entry_json (name, value, unit, iterations, domains) =
    Json.Obj
      ([ ("name", Json.String name);
         ("value", Json.Float value);
         ("unit", Json.String unit);
       ]
      @ (if String.equal unit "seconds" then
           [ ("wall_seconds", Json.Float value) ]
         else [])
      @ [ ("iterations", Json.Int iterations); ("domains", Json.Int domains) ])
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      (* one entry per line keeps the file diff-friendly across PRs while
         each line stays canonical Jsonkit.Json output *)
      output_string oc "{\n  \"schema_version\": 2,\n  \"entries\": [\n";
      List.iteri
        (fun i e ->
          output_string oc
            (Printf.sprintf "    %s%s\n"
               (Json.to_string (entry_json e))
               (if i = n - 1 then "" else ",")))
        entries;
      output_string oc "  ]\n}\n");
  Printf.printf "wrote %s (%d entries)\n" path n

(* --- figure 2 -------------------------------------------------------------- *)

let figure2_graph () =
  let g = Sdf.Graph.empty "figure2" in
  let g, a = Sdf.Graph.add_actor g ~name:"A" ~execution_time:10 in
  let g, b = Sdf.Graph.add_actor g ~name:"B" ~execution_time:4 in
  let g, c = Sdf.Graph.add_actor g ~name:"C" ~execution_time:6 in
  let g, _ =
    Sdf.Graph.add_channel g ~name:"a2b" ~source:a ~production_rate:2 ~target:b
      ~consumption_rate:1 ()
  in
  let g, _ =
    Sdf.Graph.add_channel g ~name:"a2c" ~source:a ~production_rate:1 ~target:c
      ~consumption_rate:1 ()
  in
  let g, _ =
    Sdf.Graph.add_channel g ~name:"b2c" ~source:b ~production_rate:1 ~target:c
      ~consumption_rate:2 ()
  in
  let g, _ =
    Sdf.Graph.add_channel g ~name:"aState" ~source:a ~production_rate:1
      ~target:a ~consumption_rate:1 ~initial_tokens:1 ()
  in
  g

let figure2 () =
  section "Figure 2 - example SDF graph (3 actors, self-edge state)";
  let g = figure2_graph () in
  let q = Sdf.Repetition.vector_exn g in
  Printf.printf "repetition vector: A=%d B=%d C=%d (paper: 1, 2, 1)\n" q.(0)
    q.(1) q.(2);
  Printf.printf "deadlock free: %b\n" (Sdf.Analysis.is_deadlock_free g);
  Format.printf "self-timed: %a@." Sdf.Throughput.pp_result
    (Sdf.Throughput.analyse g)

(* --- figure 3 -------------------------------------------------------------- *)

let figure3 () =
  section "Figure 3 - MAMPS tile variants (template instances and area)";
  Printf.printf "%-28s %8s %6s %5s\n" "tile variant" "slices" "BRAM" "DSP";
  List.iter
    (fun (label, tile) ->
      let a = Arch.Area.tile tile in
      Printf.printf "%-28s %8d %6d %5d\n" label a.Arch.Area.slices
        a.Arch.Area.bram_blocks a.Arch.Area.dsp_slices)
    [
      ("tile 1: master (PE+mem+IO)", Arch.Tile.master "t");
      ("tile 2: slave (PE+mem)", Arch.Tile.slave "t");
      ("tile 3: with CA", Arch.Tile.with_ca "t");
      ("tile 4: hardware IP", Arch.Tile.ip_block ~name:"t" ~ip:"idct_core");
    ]

(* --- figure 4 -------------------------------------------------------------- *)

let figure4 () =
  section "Figure 4 - communication model for one inter-tile channel";
  List.iter
    (fun (label, choice) ->
      match Experiments.fig4_demo ~token_bytes:64 ~interconnect:choice () with
      | Error e -> Printf.printf "%s: failed (%s)\n" label e
      | Ok demo ->
          Printf.printf
            "%-4s unmapped %-8s mapped %-8s (conservative: %b), model: %d \
             actors / %d channels\n"
            label
            (Sdf.Rational.to_string demo.Experiments.original_throughput)
            (Sdf.Rational.to_string demo.Experiments.mapped_throughput)
            (Sdf.Rational.compare demo.Experiments.mapped_throughput
               demo.Experiments.original_throughput
            <= 0)
            demo.Experiments.expanded_actors demo.Experiments.expanded_channels)
    [
      ("fsl", Arch.Template.Use_fsl Arch.Fsl.default);
      ("noc", Arch.Template.Use_noc Arch.Noc.default_config);
    ]

(* --- figure 5 -------------------------------------------------------------- *)

let figure5 () =
  section "Figure 5 - the MJPEG decoder application";
  let seq = Mjpeg.Streams.synthetic () in
  let g = Mjpeg.Mjpeg_app.graph ~stream:seq.Mjpeg.Streams.seq_stream in
  Printf.printf "actors: %d, channels: %d (paper: 5 actors, 8 channels)\n"
    (Sdf.Graph.actor_count g) (Sdf.Graph.channel_count g);
  let q = Sdf.Repetition.vector_exn g in
  Printf.printf "repetition vector:";
  List.iter
    (fun name ->
      let id = (Sdf.Graph.actor_of_name g name).Sdf.Graph.actor_id in
      Printf.printf " %s=%d" name q.(id))
    Mjpeg.Mjpeg_app.actor_names;
  Printf.printf "\nstructural WCETs (cycles):";
  List.iter
    (fun (name, wcet) -> Printf.printf " %s=%d" name wcet)
    (Mjpeg.Mjpeg_app.wcet_table ());
  print_newline ()

(* --- figure 6 -------------------------------------------------------------- *)

(* the plottable series behind the bar chart, one row per sequence *)
let write_csv path rows =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        "sequence,worst_case_mcu_per_mhz_s,expected,measured\n";
      List.iter
        (fun (r : Core.Report.throughput_row) ->
          let cell = function
            | Some v -> Printf.sprintf "%.6f" (Core.Report.mcus_per_mhz_second v)
            | None -> ""
          in
          output_string oc
            (Printf.sprintf "%s,%.6f,%s,%s\n" r.Core.Report.row_label
               (Core.Report.mcus_per_mhz_second r.Core.Report.worst_case)
               (cell r.Core.Report.expected)
               (cell r.Core.Report.measured)))
        rows);
  Printf.printf "series written to %s\n" path

let figure6 label choice ~paper_note =
  section
    (Printf.sprintf "Figure 6%s - throughput on the %s platform" label
       (match choice with
       | Arch.Template.Use_fsl _ -> "FSL point-to-point"
       | Arch.Template.Use_noc _ -> "SDM NoC"));
  match Experiments.figure6 choice () with
  | Error e -> Printf.printf "failed: %s\n" e
  | Ok results ->
      let rows = List.map (fun r -> r.Experiments.row) results in
      Format.printf "%a@." Core.Report.pp_throughput_table rows;
      Printf.printf "%s\n" paper_note;
      Printf.printf "bound respected on every sequence: %b\n"
        (List.for_all Core.Report.bound_respected rows);
      write_csv (Printf.sprintf "figure6%s.csv" label) rows

(* --- table 1 ---------------------------------------------------------------- *)

let table1 () =
  section "Table 1 - designer effort";
  match Experiments.table1 () with
  | Error e -> Printf.printf "failed: %s\n" e
  | Ok times ->
      Format.printf "%a@." Core.Report.pp_effort_table times;
      Printf.printf
        "(paper automated steps: 1 s arch model, 1 min mapping, 16 s project, \
         17 min XPS synthesis; our synthesis stand-in elaborates the \
         simulator instead of running XPS)\n"

(* --- section 6.3 ------------------------------------------------------------- *)

let section63 () =
  section "Section 6.3 - communication assist study (model-level)";
  List.iter
    (fun (label, scale) ->
      match Experiments.ca_study ~pe_serialization_scale:scale () with
      | Error e -> Printf.printf "%s: failed (%s)\n" label e
      | Ok study ->
          Printf.printf
            "%-44s without CA %-10s with CA %-10s improvement +%d%%\n" label
            (Sdf.Rational.to_string study.Experiments.baseline)
            (Sdf.Rational.to_string study.Experiments.with_ca)
            study.Experiments.improvement_percent)
    [
      ("calibrated Microblaze copy loops (x1)", 1);
      ("slower software comm (x4)", 4);
      ("slower software comm (x8)", 8);
      ("handshake-heavy software comm (x16)", 16);
    ];
  Printf.printf "(paper: up to +300%% on a communication-dominated platform)\n"

(* Same study with the symbolic (max,+) analysis: identical guarantees, but
   MCM on the expanded HSDF graph replaces simulate-to-convergence, so the
   cost no longer grows with the serialization scale. Timed against
   section.63 from a cold analysis cache. *)
let section63_mcm () =
  section "Section 6.3 - CA study, symbolic (max,+) analysis";
  List.iter
    (fun (label, scale) ->
      match
        Experiments.ca_study ~pe_serialization_scale:scale ~analysis:`Mcm ()
      with
      | Error e -> Printf.printf "%s: failed (%s)\n" label e
      | Ok study ->
          Printf.printf
            "%-44s without CA %-10s with CA %-10s improvement +%d%%\n" label
            (Sdf.Rational.to_string study.Experiments.baseline)
            (Sdf.Rational.to_string study.Experiments.with_ca)
            study.Experiments.improvement_percent)
    [
      ("calibrated Microblaze copy loops (x1)", 1);
      ("slower software comm (x4)", 4);
      ("slower software comm (x8)", 8);
      ("handshake-heavy software comm (x16)", 16);
    ];
  let stats = Sdf.Throughput.mcm_stats () in
  Printf.printf "(guarantees identical to section.63; mcm runs %d, fallbacks %d)\n"
    stats.Sdf.Throughput.runs stats.Sdf.Throughput.fallbacks

(* --- section 5.3.1 ------------------------------------------------------------- *)

let section531 () =
  section "Section 5.3.1 - NoC flow-control area overhead";
  let area = Experiments.noc_area () in
  Format.printf
    "router with flow control: %a@.router without:           %a@.overhead: \
     +%d%% slices (paper: ~12%%)@."
    Arch.Area.pp area.Experiments.router_with_flow_control Arch.Area.pp
    area.Experiments.router_without area.Experiments.overhead_percent

(* --- ablations -------------------------------------------------------------------- *)

(* Design-choice ablations (DESIGN.md section 4): how the guarantee reacts
   to the buffer-distribution search depth, the NoC wire allocation, and
   the WCET calibration margin. *)
let ablations () =
  section "Ablations - design choices of the flow";
  let seq = Mjpeg.Streams.synthetic () in
  let app =
    match Experiments.calibrated_mjpeg seq with
    | Ok app -> app
    | Error e -> failwith e
  in
  let guarantee_of options choice =
    match Core.Design_flow.run_auto app ~options choice () with
    | Ok flow -> (
        match flow.Core.Design_flow.guarantee with
        | Some g -> Sdf.Rational.to_string g
        | None -> "-")
    | Error e -> "failed: " ^ Core.Flow_error.to_string e
  in
  Printf.printf "buffer-distribution search depth (FSL):\n";
  List.iter
    (fun rounds ->
      let options =
        { Experiments.flow_options with buffer_growth_rounds = rounds }
      in
      Printf.printf "  growth rounds %d: guarantee %s\n" rounds
        (guarantee_of options (Arch.Template.Use_fsl Arch.Fsl.default)))
    [ 0; 1; 2; 3; 4 ];
  Printf.printf "\nNoC wires per connection (32-wire links):\n";
  List.iter
    (fun wires ->
      let options =
        { Experiments.flow_options with wires_per_connection = wires }
      in
      Printf.printf "  %2d wires (%2d cycles/word): guarantee %s\n" wires
        ((32 + wires - 1) / wires)
        (guarantee_of options (Arch.Template.Use_noc Arch.Noc.default_config)))
    [ 1; 2; 4; 8; 16; 32 ];
  Printf.printf
    "\nWCET calibration margin (worst-case line vs measured, synthetic):\n";
  List.iter
    (fun margin ->
      let result =
        let ( let* ) = Result.bind in
        let* app =
          Mjpeg.Mjpeg_app.calibrated_application
            ~stream:seq.Mjpeg.Streams.seq_stream ~margin_percent:margin ()
        in
        let* flow =
          Result.map_error Core.Flow_error.to_string
            (Core.Design_flow.run_auto app ~options:Experiments.flow_options
               (Arch.Template.Use_fsl Arch.Fsl.default)
               ())
        in
        let* measured =
          Result.map_error Core.Flow_error.to_string
            (Core.Design_flow.measure flow
               ~iterations:(2 * Mjpeg.Streams.mcus seq)
               ())
        in
        Ok
          ( Option.get flow.Core.Design_flow.guarantee,
            Sim.Platform_sim.steady_throughput measured )
      in
      match result with
      | Error e -> Printf.printf "  margin %2d%%: failed (%s)\n" margin e
      | Ok (worst, measured) ->
          Printf.printf
            "  margin %2d%%: worst-case %7.4f, measured %7.4f MCU/MHz/s, \
             bound %s\n"
            margin
            (Core.Report.mcus_per_mhz_second worst)
            (Core.Report.mcus_per_mhz_second measured)
            (if Sdf.Rational.compare measured worst >= 0 then "holds"
             else "VIOLATED"))
    [ 0; 10; 25; 50 ]

(* --- profile ---------------------------------------------------------------- *)

(* the observability layer end to end: the full probe-armed measurement the
   `profile` CLI subcommand exposes, on the synthetic MJPEG FSL platform *)
let profile_section () =
  section "Profile - probe-armed MJPEG measurement (FSL platform)";
  let seq = Mjpeg.Streams.synthetic () in
  let result =
    let ( let* ) = Result.bind in
    let* app = Experiments.calibrated_mjpeg seq in
    let* flow =
      Result.map_error Core.Flow_error.to_string
        (Core.Design_flow.run_auto app ~options:Experiments.flow_options
           (Arch.Template.Use_fsl Arch.Fsl.default)
           ())
    in
    let* p =
      Result.map_error Core.Flow_error.to_string
        (Core.Design_flow.profile flow
           ~iterations:(Mjpeg.Streams.mcus seq)
           ())
    in
    Ok (flow, p)
  in
  match result with
  | Error e -> Printf.printf "failed: %s\n" e
  | Ok (flow, p) ->
      Format.printf "%a@." Core.Report.pp_profile (flow, p);
      Printf.printf
        "\ntrace: %d spans (%d bytes as Chrome JSON, %d bytes as VCD)\n"
        (Sim.Trace.span_count p.Core.Design_flow.pf_trace)
        (String.length (Sim.Trace.to_chrome_json p.Core.Design_flow.pf_trace))
        (String.length (Sim.Trace.to_vcd p.Core.Design_flow.pf_trace))

(* --- conformance sweep ----------------------------------------------------- *)

let conformance_sweep () =
  section "Conformance sweep - bound tightness over random workloads";
  let t0 = Exec.Clock.now () in
  let report =
    Conformance.Engine.run_suite
      ~out_dir:(Filename.concat (Filename.get_temp_dir_name ()) "bench_conf")
      ~base_seed:0 ~count:100 ()
  in
  let dt = Exec.Clock.elapsed_since t0 in
  record ~name:"conformance.sweep" ~value:dt ~iterations:100 ~domains:1 ();
  Printf.printf
    "100 seeded workloads (FSL and NoC alternating): %d failures\n"
    (List.length report.Conformance.Engine.r_failures);
  Printf.printf
    "bound tightness (WCET-simulated / guaranteed): mean %.4f, max %.4f\n"
    report.Conformance.Engine.r_mean_tightness
    report.Conformance.Engine.r_max_tightness;
  Printf.printf "wall time: %.2fs (%.1f ms per workload)\n" dt
    (1000.0 *. dt /. 100.0)

(* --- recovery --------------------------------------------------------------- *)

(* the self-healing loop per single-resource kill on the 4-tile MJPEG NoC
   platform: wall time of diagnose-repair-reverify (time to repair) and the
   degraded/original guarantee ratio, both recorded into BENCH.json *)
let recovery_section () =
  section "Recovery - permanent-fault repair (4-tile MJPEG NoC platform)";
  let seq = Mjpeg.Streams.synthetic () in
  let app =
    match Experiments.calibrated_mjpeg seq with
    | Ok app -> app
    | Error e -> failwith e
  in
  match
    Core.Design_flow.run_auto app ~tiles:4
      (Arch.Template.Use_noc Arch.Noc.default_config)
      ()
  with
  | Error e -> Printf.printf "flow failed: %s\n" (Core.Flow_error.to_string e)
  | Ok flow ->
      let mapping = flow.Core.Design_flow.mapping in
      let iterations = Mjpeg.Streams.mcus seq in
      List.iter
        (fun scenario ->
          let name = Recover.scenario_name scenario in
          let faults = Recover.fault_of_scenario scenario in
          match Sim.Platform_sim.run mapping ~iterations ~faults () with
          | Ok _ -> Printf.printf "  %-14s tolerated (fault never bit)\n" name
          | Error (Sim.Platform_sim.Deadlock d) -> (
              match d.Sim.Diagnosis.dg_classification with
              | Sim.Diagnosis.Resource_failure { rf_resource; _ } -> (
                  let result, wall =
                    Exec.Clock.timed (fun () ->
                        Recover.run mapping ~failed:rf_resource ~iterations ())
                  in
                  match result with
                  | Ok (report, _) ->
                      record
                        ~name:(Printf.sprintf "recover.%s.time_to_repair" name)
                        ~value:wall ~iterations:1 ~domains:1 ();
                      let ratio = Recover.Report.degraded_ratio report in
                      record ~unit:"ratio"
                        ~name:(Printf.sprintf "recover.%s.degraded_ratio" name)
                        ~value:ratio ~iterations:1 ~domains:1 ();
                      Printf.printf
                        "  %-14s repaired in %6.3f s, degraded throughput \
                         ratio %.3f\n"
                        name wall ratio
                  | Error e ->
                      Printf.printf "  %-14s unrepairable: %s\n" name
                        (Recover.error_to_string e))
              | Sim.Diagnosis.Wait_for_cycle ->
                  Printf.printf "  %-14s design deadlock (unexpected)\n" name)
          | Error e ->
              Printf.printf "  %-14s failed: %s\n" name
                (Sim.Platform_sim.error_to_string e))
        (Recover.scenarios mapping)

(* --- parallel scaling ------------------------------------------------------- *)

(* the same DSE sweep on 1, 2, 4 and recommended-domain-count workers:
   the Pareto front must be identical at every -j, only the wall time
   moves. The analysis cache is cleared once up front, so dse.sweep.j1
   measures the cold sweep; the later -j passes run against the cache
   the first pass warmed — exactly what the fixed pool + memoization
   deliver to a real multi-pass session — and must beat it. A final
   sequential re-run records dse.sweep.memoized, the fully-warm sweep
   the acceptance gate compares against the cold one. GC counters ride
   along per run to keep the original diagnosis (cross-domain
   collection pressure) visible in the bench output. *)
let parallel_scaling () =
  section "Parallel scaling - DSE sweep over Exec.Pool domains";
  let seq = Mjpeg.Streams.synthetic () in
  let app =
    match Experiments.calibrated_mjpeg seq with
    | Ok app -> app
    | Error e -> failwith e
  in
  let front_key points =
    List.map
      (fun (p : Core.Dse.point) ->
        ( p.Core.Dse.tile_count,
          Core.Dse.interconnect_label p.Core.Dse.interconnect,
          Option.map Sdf.Rational.to_string p.Core.Dse.guarantee,
          p.Core.Dse.slices ))
      (Core.Dse.pareto points)
  in
  let sweep ?name jobs =
    let gc0 = Gc.quick_stat () in
    let memo0 = Sdf.Throughput.memo_stats () in
    let t0 = Exec.Clock.now () in
    let points, failures =
      Core.Dse.explore app ~options:Experiments.flow_options ~jobs ()
    in
    let dt = Exec.Clock.elapsed_since t0 in
    let gc1 = Gc.quick_stat () in
    let memo = Sdf.Memo.delta ~before:memo0 ~after:(Sdf.Throughput.memo_stats ()) in
    record
      ~name:(Option.value name ~default:(Printf.sprintf "dse.sweep.j%d" jobs))
      ~value:dt
      ~iterations:(List.length points + List.length failures)
      ~domains:jobs ();
    ( jobs,
      dt,
      points,
      Printf.sprintf "minor/major GCs %d/%d, cache %d hit %d miss"
        (gc1.Gc.minor_collections - gc0.Gc.minor_collections)
        (gc1.Gc.major_collections - gc0.Gc.major_collections)
        memo.Sdf.Memo.hits memo.Sdf.Memo.misses )
  in
  (* drop whatever the earlier sections cached so -j 1 is the cold sweep *)
  Sdf.Throughput.memo_clear ();
  let auto = Exec.Pool.parallelism ~jobs:0 () in
  let runs =
    List.map (fun j -> sweep j) (List.sort_uniq compare [ 1; 2; 4; auto ])
  in
  (match runs with
  | [] -> ()
  | (_, base_dt, base_points, _) :: _ ->
      let base_front = front_key base_points in
      List.iter
        (fun (jobs, dt, points, gc) ->
          Printf.printf
            "  -j %-2d  %6.2f s  speedup x%4.2f  front %d point(s), %s  (%s)\n"
            jobs dt
            (if dt > 0. then base_dt /. dt else 0.)
            (List.length (front_key points))
            (if front_key points = base_front then "identical to -j 1"
             else "DIFFERENT FROM -j 1 (determinism violation)")
            gc)
        runs;
      (* the fully-warm sequential sweep: same workload, analysis cache
         populated — the memoization payoff in isolation *)
      let _, warm_dt, warm_points, warm_gc =
        sweep ~name:"dse.sweep.memoized" 1
      in
      Printf.printf "  memoized re-run (-j 1)  %6.2f s  reduction x%4.2f  %s  (%s)\n"
        warm_dt
        (if warm_dt > 0. then base_dt /. warm_dt else 0.)
        (if front_key warm_points = base_front then "front identical"
         else "front DIFFERENT (determinism violation)")
        warm_gc)

(* --- budgeted execution: anytime DSE under a deadline ----------------------- *)

(* interrupt the sweep with a deadline, resume from the checkpoint, and
   check the resumed report is byte-identical to an uninterrupted run —
   the bench records how much of the sweep each phase covered *)
let anytime_section () =
  section "Budgeted execution - anytime DSE (deadline, checkpoint, resume)";
  let seq = Mjpeg.Streams.synthetic () in
  let app =
    match Experiments.calibrated_mjpeg seq with
    | Ok app -> app
    | Error e -> failwith e
  in
  let table a =
    Format.asprintf "%a" Core.Dse.pp_summary_table
      (Core.Dse.pareto_summaries a.Core.Dse.a_summaries)
  in
  let full =
    let t0 = Exec.Clock.now () in
    match
      Core.Dse.explore_anytime app ~options:Experiments.flow_options ()
    with
    | Error e -> failwith e
    | Ok a ->
        record ~name:"dse.anytime.full" ~value:(Exec.Clock.elapsed_since t0)
          ~iterations:(List.length a.Core.Dse.a_summaries) ~domains:1 ();
        a
  in
  let ckpt = Filename.concat (Filename.get_temp_dir_name ()) "bench_dse.ckpt" in
  if Sys.file_exists ckpt then Sys.remove ckpt;
  let partial =
    let t0 = Exec.Clock.now () in
    match
      Core.Dse.explore_anytime app ~options:Experiments.flow_options
        ~deadline:(Exec.Budget.after 0.5) ~checkpoint:ckpt ()
    with
    | Error e -> failwith e
    | Ok a ->
        record ~name:"dse.anytime.partial" ~value:(Exec.Clock.elapsed_since t0)
          ~iterations:(List.length a.Core.Dse.a_summaries) ~domains:1 ();
        a
  in
  (match partial.Core.Dse.a_degradation with
  | Some d ->
      Printf.printf "  0.5 s deadline: %d evaluated, %d skipped\n"
        d.Core.Dse.d_evaluated d.Core.Dse.d_skipped
  | None -> Printf.printf "  0.5 s deadline: sweep finished inside budget\n");
  let resumed =
    let t0 = Exec.Clock.now () in
    match
      Core.Dse.explore_anytime app ~options:Experiments.flow_options
        ~resume:ckpt ()
    with
    | Error e -> failwith e
    | Ok a ->
        record ~name:"dse.anytime.resume" ~value:(Exec.Clock.elapsed_since t0)
          ~iterations:(List.length a.Core.Dse.a_summaries) ~domains:1 ();
        a
  in
  Printf.printf "  resume adopted %d checkpointed point(s); Pareto front %s\n"
    resumed.Core.Dse.a_resumed
    (if table resumed = table full then "identical to uninterrupted run"
     else "DIFFERENT FROM UNINTERRUPTED RUN (determinism violation)")

(* --- Bechamel microbenchmarks --------------------------------------------------- *)

let microbenchmarks () =
  section "Microbenchmarks (Bechamel, one per table/figure hot step)";
  let seq = Mjpeg.Streams.synthetic () in
  let app =
    match Experiments.calibrated_mjpeg seq with
    | Ok app -> app
    | Error e -> failwith e
  in
  let flow =
    match
      Core.Design_flow.run_auto app ~options:Experiments.flow_options
        (Arch.Template.Use_fsl Arch.Fsl.default)
        ()
    with
    | Ok flow -> flow
    | Error e -> failwith (Core.Flow_error.to_string e)
  in
  let mapping = flow.Core.Design_flow.mapping in
  let expanded = mapping.Mapping.Flow_map.expansion.Mapping.Comm_map.graph in
  let exec_options = mapping.Mapping.Flow_map.exec_options in
  let fig2 = figure2_graph () in
  let stream = seq.Mjpeg.Streams.seq_stream in
  let mcus = Mjpeg.Streams.mcus seq in
  let tests =
    [
      Test.make ~name:"fig2.repetition-vector"
        (Staged.stage (fun () -> Sdf.Repetition.vector_exn fig2));
      Test.make ~name:"fig2.self-timed-throughput"
        (Staged.stage (fun () -> Sdf.Throughput.analyse fig2));
      Test.make ~name:"fig3.tile-area"
        (Staged.stage (fun () -> Arch.Area.tile (Arch.Tile.master "t")));
      Test.make ~name:"fig4.comm-model-expansion"
        (Staged.stage (fun () ->
             Mapping.Comm_map.expand
               ~graph:mapping.Mapping.Flow_map.timed_graph
               ~binding:(fun name ->
                 Mapping.Binding.tile_of mapping.Mapping.Flow_map.binding name)
               ~platform:mapping.Mapping.Flow_map.platform ()));
      Test.make ~name:"fig5.vld-decode-one-mcu"
        (Staged.stage (fun () ->
             Mjpeg.Vld.decode_one_mcu stream Mjpeg.Tokens.initial_vld_state));
      Test.make ~name:"fig6.worst-case-analysis"
        (Staged.stage (fun () ->
             Sdf.Throughput.analyse ~options:exec_options expanded));
      Test.make ~name:"fig6.mcm"
        (Staged.stage (fun () ->
             Sdf.Throughput.analyse ~options:exec_options ~method_:`Mcm
               expanded));
      Test.make ~name:"fig6.platform-simulation-one-pass"
        (Staged.stage (fun () -> Sim.Platform_sim.run mapping ~iterations:mcus ()));
      Test.make ~name:"table1.architecture-generation"
        (Staged.stage (fun () ->
             Arch.Template.for_application app
               (Arch.Template.Use_fsl Arch.Fsl.default)));
      Test.make ~name:"table1.mapping"
        (Staged.stage (fun () ->
             Mapping.Flow_map.run app flow.Core.Design_flow.platform
               ~options:Experiments.flow_options ()));
      Test.make ~name:"conformance.generate-workload"
        (Staged.stage (fun () -> Gen.Workload.generate ~seed:7 ()));
      Test.make ~name:"conformance.check-one-seed"
        (Staged.stage (fun () -> Conformance.Engine.check_seed 7));
      Test.make ~name:"table1.project-generation"
        (Staged.stage (fun () -> Mamps.Project.generate mapping));
      Test.make ~name:"table1.synthesis-elaboration"
        (Staged.stage (fun () ->
             let netlist = Mamps.Netlist.of_mapping mapping in
             ( Mamps.Netlist.validate netlist,
               Sim.Platform_sim.run mapping ~iterations:1 () )));
    ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) () in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  Printf.printf "%-36s %16s\n" "step" "time per run";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analysis = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let nanos =
            match Analyze.OLS.estimates ols_result with
            | Some (value :: _) -> value
            | Some [] | None -> nan
          in
          let human =
            if Float.is_nan nanos then "n/a"
            else if nanos > 1e9 then Printf.sprintf "%8.2f  s" (nanos /. 1e9)
            else if nanos > 1e6 then Printf.sprintf "%8.2f ms" (nanos /. 1e6)
            else if nanos > 1e3 then Printf.sprintf "%8.2f us" (nanos /. 1e3)
            else Printf.sprintf "%8.0f ns" nanos
          in
          if not (Float.is_nan nanos) then
            record ~name:("micro." ^ name) ~value:(nanos /. 1e9) ~iterations:1
              ~domains:1 ();
          Printf.printf "%-36s %16s\n" name human)
        analysis;
      flush stdout)
    tests

let () =
  timed_section "section.figure2" figure2;
  timed_section "section.figure3" figure3;
  timed_section "section.figure4" figure4;
  timed_section "section.figure5" figure5;
  timed_section "section.figure6a" (fun () ->
      figure6 "a"
        (Arch.Template.Use_fsl Arch.Fsl.default)
        ~paper_note:
          "(paper 6a: worst-case line ~0.60, synthetic ~0.63, test-set ~0.95 \
           MCU/MHz/s; expected-vs-measured <1% on synthetic)");
  timed_section "section.figure6b" (fun () ->
      figure6 "b"
        (Arch.Template.Use_noc Arch.Noc.default_config)
        ~paper_note:
          "(paper 6b: same shape as 6a with slightly lower values on the \
           NoC)");
  timed_section "section.table1" table1;
  (* cold analysis cache on both sides so the two timings compare the
     analysis methods, not memoization luck *)
  Sdf.Throughput.memo_clear ();
  timed_section "section.63" section63;
  Sdf.Throughput.memo_clear ();
  timed_section "section.63.mcm" section63_mcm;
  timed_section "section.531" section531;
  timed_section "section.ablations" ablations;
  timed_section "section.profile" profile_section;
  conformance_sweep ();
  timed_section "section.recovery" recovery_section;
  parallel_scaling ();
  anytime_section ();
  microbenchmarks ();
  line ();
  write_bench_json "BENCH.json";
  print_endline "benchmark harness completed"
