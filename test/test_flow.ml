(* End-to-end tests of the automated flow (core) and the paper experiments
   (experiments): the reproduction's headline claims, checked as tests. *)

module Application = Appmodel.Application
module Actor_impl = Appmodel.Actor_impl
module Metrics = Appmodel.Metrics
module Rational = Sdf.Rational

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let contains needle haystack =
  let n = String.length needle in
  let rec scan i =
    i + n <= String.length haystack
    && (String.sub haystack i n = needle || scan (i + 1))
  in
  scan 0

let fail_flow e = Alcotest.fail (Core.Flow_error.to_string e)

let impl ?(wcet = 10) name =
  Actor_impl.make ~name
    ~metrics:(Metrics.make ~wcet ~instruction_memory:1024 ~data_memory:512)
    (fun _ -> [])

let figure2_app () =
  match
    Application.make ~name:"figure2"
      ~actors:
        [
          { Application.a_name = "A"; a_implementations = [ impl ~wcet:10 "a" ] };
          { Application.a_name = "B"; a_implementations = [ impl ~wcet:4 "b" ] };
          { Application.a_name = "C"; a_implementations = [ impl ~wcet:6 "c" ] };
        ]
      ~channels:
        [
          Application.channel ~name:"a2b" ~source:"A" ~production:2 ~target:"B"
            ~consumption:1 ();
          Application.channel ~name:"a2c" ~source:"A" ~production:1 ~target:"C"
            ~consumption:1 ();
          Application.channel ~name:"b2c" ~source:"B" ~production:1 ~target:"C"
            ~consumption:2 ();
          Application.channel ~name:"aState" ~source:"A" ~production:1
            ~target:"A" ~consumption:1 ~initial_tokens:1 ();
        ]
      ()
  with
  | Ok app -> app
  | Error e -> Alcotest.failf "figure2 app: %s" e

(* --- Design_flow -------------------------------------------------------------- *)

let test_flow_runs_end_to_end () =
  match
    Core.Design_flow.run_auto (figure2_app ()) ~tiles:2
      (Arch.Template.Use_fsl Arch.Fsl.default)
      ()
  with
  | Error e -> fail_flow e
  | Ok flow ->
      check bool "guarantee produced" true (flow.Core.Design_flow.guarantee <> None);
      check bool "project has files" true
        (List.length flow.Core.Design_flow.project.Mamps.Project.files >= 9);
      check bool "times recorded" true
        (flow.Core.Design_flow.times.Core.Design_flow.mapping >= 0.0)

let test_flow_rejects_bad_application () =
  let bad =
    match
      Application.make ~name:"dead"
        ~actors:
          [
            { Application.a_name = "A"; a_implementations = [ impl "a" ] };
            { Application.a_name = "B"; a_implementations = [ impl "b" ] };
          ]
        ~channels:
          [
            Application.channel ~name:"ab" ~source:"A" ~production:1
              ~target:"B" ~consumption:1 ();
            Application.channel ~name:"ba" ~source:"B" ~production:1
              ~target:"A" ~consumption:1 ();
          ]
        ()
    with
    | Ok app -> app
    | Error e -> Alcotest.failf "app: %s" e
  in
  match
    Core.Design_flow.run_auto bad (Arch.Template.Use_fsl Arch.Fsl.default) ()
  with
  | Error
      (Core.Flow_error.Application_rejected
         { application; reason = Sdf.Analysis.Deadlocks } as e) ->
      check Alcotest.string "names the application" "dead" application;
      check bool "names the deadlock" true
        (contains "deadlock" (Core.Flow_error.to_string e))
  | Error e -> Alcotest.failf "wrong error: %s" (Core.Flow_error.to_string e)
  | Ok _ -> Alcotest.fail "deadlocking application accepted"

let test_flow_measurement_respects_guarantee () =
  match
    Core.Design_flow.run_auto (figure2_app ()) ~tiles:3
      (Arch.Template.Use_fsl Arch.Fsl.default)
      ()
  with
  | Error e -> fail_flow e
  | Ok flow -> (
      match Core.Design_flow.measure flow ~iterations:50 () with
      | Error e -> fail_flow e
      | Ok r ->
          let guarantee = Option.get flow.Core.Design_flow.guarantee in
          check bool "measured >= guaranteed" true
            (Rational.compare (Sim.Platform_sim.steady_throughput r) guarantee
            >= 0))

let test_expected_throughput () =
  match
    Core.Design_flow.run_auto (figure2_app ()) ~tiles:2
      (Arch.Template.Use_fsl Arch.Fsl.default)
      ()
  with
  | Error e -> fail_flow e
  | Ok flow -> (
      (* faster measured times can only improve the expected prediction *)
      let halved actor =
        let g = Application.graph flow.Core.Design_flow.application in
        Stdlib.max 1 ((Sdf.Graph.actor_of_name g actor).execution_time / 2)
      in
      match Core.Design_flow.expected_throughput flow ~measured_times:halved with
      | Error e -> Alcotest.fail e
      | Ok (Sdf.Throughput.Throughput { throughput; _ }) ->
          check bool "expected above the guarantee" true
            (Rational.compare throughput
               (Option.get flow.Core.Design_flow.guarantee)
            >= 0)
      | Ok _ -> Alcotest.fail "expected analysis did not converge")

(* --- Report --------------------------------------------------------------------- *)

let test_report_units_and_bounds () =
  check bool "unit conversion" true
    (abs_float (Core.Report.mcus_per_mhz_second (Rational.make 1 100000) -. 10.0)
    < 1e-9);
  let row value =
    {
      Core.Report.row_label = "x";
      worst_case = Rational.make 1 100;
      expected = Some (Rational.make 1 90);
      measured = Some value;
    }
  in
  check bool "bound respected" true
    (Core.Report.bound_respected (row (Rational.make 1 95)));
  check bool "bound violated" false
    (Core.Report.bound_respected (row (Rational.make 1 200)));
  match Core.Report.margin_percent (row (Rational.make 1 90)) with
  | Some m -> check bool "zero margin" true (abs_float m < 1e-9)
  | None -> Alcotest.fail "margin expected"

let test_report_tables_render () =
  let rows =
    [
      {
        Core.Report.row_label = "synthetic";
        worst_case = Rational.make 1 50000;
        expected = Some (Rational.make 1 45000);
        measured = Some (Rational.make 1 44000);
      };
    ]
  in
  let table = Format.asprintf "%a" Core.Report.pp_throughput_table rows in
  check bool "sequence named" true (contains "synthetic" table);
  check bool "unit named" true (contains "MCUs per MHz per second" table);
  let effort =
    Format.asprintf "%a" Core.Report.pp_effort_table
      {
        Core.Design_flow.architecture_generation = 0.001;
        mapping = 0.2;
        platform_generation = 0.01;
        synthesis = 0.5;
      }
  in
  check bool "manual steps quoted" true (contains "Parallelizing the MJPEG code" effort);
  check bool "automated steps timed" true (contains "(automated)" effort)

(* --- Experiments ------------------------------------------------------------------ *)

let test_noc_area_experiment () =
  let area = Experiments.noc_area () in
  check bool "overhead near the paper's 12%" true
    (area.Experiments.overhead_percent >= 10
    && area.Experiments.overhead_percent <= 13)

let test_fig4_experiment () =
  match Experiments.fig4_demo ~token_bytes:64 () with
  | Error e -> Alcotest.fail e
  | Ok demo ->
      check bool "mapping degrades throughput conservatively" true
        (Rational.compare demo.Experiments.mapped_throughput
           demo.Experiments.original_throughput
        <= 0);
      check bool "throughput still positive" true
        (Rational.sign demo.Experiments.mapped_throughput > 0);
      (* 2 original actors + 8 model actors per mapped channel; the data
         channel and its reverse space edge both cross tiles *)
      check int "expanded actors" (2 + (2 * 8)) demo.Experiments.expanded_actors;
      check bool "expanded channels" true (demo.Experiments.expanded_channels >= 28)

let test_figure6_row_guarantee () =
  (* one bar group of Figure 6, checked for the paper's headline claim *)
  let seq = Mjpeg.Streams.synthetic () in
  match
    Experiments.figure6_row (Arch.Template.Use_fsl Arch.Fsl.default) seq
      ~passes:2 ()
  with
  | Error e -> Alcotest.fail e
  | Ok { row; iterations; _ } ->
      check bool "simulated enough MCUs" true (iterations >= 20);
      check bool "bound respected" true (Core.Report.bound_respected row);
      (match Core.Report.margin_percent row with
      | Some margin -> check bool "synthetic margin below 2%" true (margin < 2.0)
      | None -> Alcotest.fail "expected a margin")

(* --- figure 6 CSV pinning ----------------------------------------------------

   figure6a.csv / figure6b.csv are the committed predicted-vs-measured MJPEG
   trajectories (in MCUs per MHz per second). Pinning them here means the
   bound-tightness ratio cannot silently regress: an analysis or simulator
   change that moves these numbers must update the CSVs deliberately. *)

type figure6_csv_row = {
  csv_sequence : string;
  csv_worst_case : float;
  csv_expected : float;
  csv_measured : float;
}

let read_figure6_csv path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  match List.rev !lines with
  | header :: rows ->
      check Alcotest.string
        (path ^ " header")
        "sequence,worst_case_mcu_per_mhz_s,expected,measured" header;
      List.map
        (fun line ->
          match String.split_on_char ',' line with
          | [ s; w; e; m ] ->
              {
                csv_sequence = s;
                csv_worst_case = float_of_string w;
                csv_expected = float_of_string e;
                csv_measured = float_of_string m;
              }
          | _ -> Alcotest.failf "%s: malformed row %S" path line)
        rows
  | [] -> Alcotest.failf "%s: empty" path

let pinned_worst_case = 23.121922
(* the committed guarantee for the calibrated MJPEG mapping; the measured
   trajectories stay within this window above it *)
let tightness_window = (1.0, 1.35)

let test_figure6_csv_pinned () =
  List.iter
    (fun path ->
      let rows = read_figure6_csv path in
      check (Alcotest.list Alcotest.string)
        (path ^ " sequences")
        [ "synthetic"; "gradient"; "blocks"; "waves"; "detail"; "motion" ]
        (List.map (fun r -> r.csv_sequence) rows);
      List.iter
        (fun r ->
          let label what = Printf.sprintf "%s %s %s" path r.csv_sequence what in
          check (Alcotest.float 1e-6) (label "worst case pinned")
            pinned_worst_case r.csv_worst_case;
          check bool (label "measured at or above the bound") true
            (r.csv_measured >= r.csv_worst_case);
          check bool (label "expected at or above the bound") true
            (r.csv_expected >= r.csv_worst_case);
          let lo, hi = tightness_window in
          let tightness = r.csv_measured /. r.csv_worst_case in
          check bool
            (Printf.sprintf "%s within [%.2f, %.2f] (got %.3f)"
               (label "tightness") lo hi tightness)
            true
            (tightness >= lo && tightness <= hi))
        rows)
    [ "../figure6a.csv"; "../figure6b.csv" ]

let test_figure6_live_matches_csv () =
  (* the bound is a static analysis result, independent of how many passes
     are simulated — recompute it and hold it against the committed CSV *)
  let seq = Mjpeg.Streams.synthetic () in
  match
    Experiments.figure6_row (Arch.Template.Use_fsl Arch.Fsl.default) seq
      ~passes:2 ()
  with
  | Error e -> Alcotest.fail e
  | Ok { row; _ } ->
      let live = Core.Report.mcus_per_mhz_second row.Core.Report.worst_case in
      check (Alcotest.float 1e-3) "live guarantee equals the committed CSV"
        pinned_worst_case live;
      (match row.Core.Report.measured with
      | None -> Alcotest.fail "expected a measured throughput"
      | Some m ->
          check bool "live measurement at or above the committed bound" true
            (Core.Report.mcus_per_mhz_second m >= pinned_worst_case))

(* --- symbolic (max,+) analysis cross-checks ------------------------------- *)

let test_mcm_matches_figure6_csv () =
  (* the MCM guarantee on the calibrated MJPEG mapping must equal the
     state-space guarantee exactly and reproduce the committed figure-6
     worst case *)
  let seq = Mjpeg.Streams.synthetic () in
  match Experiments.calibrated_mjpeg seq with
  | Error e -> Alcotest.fail e
  | Ok app -> (
      let run analysis =
        match
          Core.Design_flow.run_auto app
            ~options:(Experiments.flow_options_with ~analysis ())
            (Arch.Template.Use_fsl Arch.Fsl.default) ()
        with
        | Ok flow -> flow.Core.Design_flow.guarantee
        | Error e -> Alcotest.fail (Core.Flow_error.to_string e)
      in
      match (run `Mcm, run `State_space) with
      | Some mcm, Some ss ->
          check bool "mcm equals state space exactly" true
            (Rational.equal mcm ss);
          check (Alcotest.float 1e-6) "mcm guarantee equals the committed CSV"
            pinned_worst_case
            (Core.Report.mcus_per_mhz_second mcm)
      | _ -> Alcotest.fail "expected guarantees from both methods")

(* The MCM analysis of the case study's buffer-search rounds, pinned: the
   five-tile mapping re-expanded at buffer scales 1, 2 and 4, exactly as
   [Flow_map] expands each round. The period fields come from the witness
   cycle, so these pins also hold the order in which the analysis walks
   each node's successors. *)
let test_case_study_mcm_pinned () =
  let pins =
    [
      ( "fsl",
        Case_study.fsl,
        [ (1, 55205, 780); (2, 48563, 776); (4, 43249, 703) ] );
      ( "noc",
        Case_study.noc,
        [ (1, 55213, 780); (2, 48567, 776); (4, 43249, 703) ] );
    ]
  in
  List.iter
    (fun (name, template, rounds) ->
      let m = Case_study.mapping template in
      check int (name ^ " final buffer scale") 4 m.Mapping.Flow_map.buffer_scale;
      List.iter
        (fun (scale, period, cycle_len) ->
          let label = Printf.sprintf "%s scale %d" name scale in
          let g, options = Case_study.round m scale in
          let result = Sdf.Throughput.analyse ~options ~method_:`Mcm g in
          if scale = m.Mapping.Flow_map.buffer_scale then
            check bool (label ^ " is the flow's own final round") true
              (result = m.Mapping.Flow_map.predicted);
          (match result with
          | Sdf.Throughput.Throughput
              { throughput; transient_time; period_time; period_iterations }
            ->
              check Alcotest.string (label ^ " throughput")
                (Printf.sprintf "1/%d" period)
                (Rational.to_string throughput);
              check int (label ^ " transient") 0 transient_time;
              check int (label ^ " period time") period period_time;
              check int (label ^ " period iterations") 1 period_iterations
          | r ->
              Alcotest.failf "%s: %a" label Sdf.Throughput.pp_result r);
          match Sdf.Hsdf.expand_csr ~options g with
          | Error e -> Alcotest.failf "%s: %a" label Sdf.Hsdf.pp_error e
          | Ok csr -> (
              match Sdf.Mcm.max_cycle_ratio_csr csr with
              | Sdf.Mcm.Ratio { critical; _ } ->
                  check int (label ^ " critical cycle instances") cycle_len
                    (List.length critical.Sdf.Mcm.cycle_actors)
              | _ -> Alcotest.failf "%s: expected a ratio" label))
        rounds)
    pins

let test_analysis_methods_agree_on_workloads () =
  (* the conformance analysis-agreement property pinned on fixed seeds:
     through the full flow, both analysis methods produce the same exact
     guarantee on generated workloads *)
  for seed = 0 to 11 do
    let w = Gen.Workload.generate ~seed () in
    let run analysis =
      Core.Design_flow.run_auto w.Gen.Workload.application
        ~options:{ Mapping.Flow_map.default_options with analysis }
        (Arch.Template.Use_fsl Arch.Fsl.default)
        ()
    in
    match (run `State_space, run `Mcm) with
    | Ok a, Ok b -> (
        match (a.Core.Design_flow.guarantee, b.Core.Design_flow.guarantee) with
        | Some x, Some y ->
            if not (Rational.equal x y) then
              Alcotest.failf "seed %d: state space %s, mcm %s" seed
                (Rational.to_string x) (Rational.to_string y)
        | None, None -> ()
        | Some _, None | None, Some _ ->
            Alcotest.failf "seed %d: methods disagree about convergence" seed)
    | Error e, _ | _, Error e ->
        Alcotest.failf "seed %d: flow failed: %s" seed
          (Core.Flow_error.to_string e)
  done

let test_ca_study () =
  match Experiments.ca_study () with
  | Error e -> Alcotest.fail e
  | Ok study ->
      check bool "CA improves the guarantee" true
        (study.Experiments.improvement_percent > 0);
      check bool "improvement bounded by the paper's 300%" true
        (study.Experiments.improvement_percent <= 300)

let test_table1 () =
  match Experiments.table1 () with
  | Error e -> Alcotest.fail e
  | Ok times ->
      check bool "all automated steps timed" true
        (times.Core.Design_flow.architecture_generation >= 0.0
        && times.Core.Design_flow.mapping >= 0.0
        && times.Core.Design_flow.platform_generation >= 0.0
        && times.Core.Design_flow.synthesis >= 0.0)

(* --- multi-application + DSE extensions --------------------------------------- *)

let tiny_app name wcet =
  match
    Application.make ~name
      ~actors:
        [
          { Application.a_name = "P"; a_implementations = [ impl ~wcet "p" ] };
          { Application.a_name = "Q"; a_implementations = [ impl ~wcet "q" ] };
        ]
      ~channels:
        [
          Application.channel ~name:"pq" ~source:"P" ~production:1 ~target:"Q"
            ~consumption:1 ();
          Application.channel ~name:"qp" ~source:"Q" ~production:1 ~target:"P"
            ~consumption:1 ~initial_tokens:2 ();
        ]
      ()
  with
  | Ok app -> app
  | Error e -> Alcotest.failf "tiny app: %s" e

let test_application_merge () =
  let a = tiny_app "alpha" 10 and b = tiny_app "beta" 20 in
  (match Application.merge [ a; b ] with
  | Error e -> Alcotest.fail e
  | Ok merged ->
      check (Alcotest.list Alcotest.string) "namespaced actors"
        [ "alpha.P"; "alpha.Q"; "beta.P"; "beta.Q" ]
        (Application.actor_names merged);
      let g = Application.graph merged in
      check int "channels" 4 (Sdf.Graph.channel_count g);
      check int "alpha keeps its wcet" 10
        (Sdf.Graph.actor_of_name g "alpha.P").execution_time;
      check int "beta keeps its wcet" 20
        (Sdf.Graph.actor_of_name g "beta.P").execution_time;
      (* functional execution still works through the renamed ports *)
      match Appmodel.Functional.run merged ~iterations:2 () with
      | Ok r -> check int "iterations" 2 r.Appmodel.Functional.iterations
      | Error e -> Alcotest.fail e);
  match Application.merge [ a; tiny_app "alpha" 5 ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate application names accepted"

let test_run_many () =
  let fast = tiny_app "fast" 10 and slow = tiny_app "slow" 40 in
  let platform =
    match
      Arch.Platform.make ~name:"shared2"
        ~tiles:[ Arch.Tile.master "tile0"; Arch.Tile.slave "tile1" ]
        (Arch.Platform.Point_to_point Arch.Fsl.default)
    with
    | Ok p -> p
    | Error e -> Alcotest.failf "platform: %s" e
  in
  (* both applications time-share the same two tiles *)
  let fixed =
    [
      (Application.qualified ~app:"fast" "P", 0);
      (Application.qualified ~app:"fast" "Q", 1);
      (Application.qualified ~app:"slow" "P", 0);
      (Application.qualified ~app:"slow" "Q", 1);
    ]
  in
  match
    Core.Design_flow.run_many [ fast; slow ] platform
      ~options:{ Mapping.Flow_map.default_options with fixed }
      ()
  with
  | Error e -> fail_flow e
  | Ok multi -> (
      check int "two applications" 2
        (List.length multi.Core.Design_flow.per_application);
      List.iter
        (fun (app, rate) ->
          match rate with
          | Some r ->
              check bool (app ^ " rate positive") true (Rational.sign r > 0)
          | None -> Alcotest.failf "%s has no guarantee" app)
        multi.Core.Design_flow.per_application;
      (* the combined platform still honours its guarantee when measured *)
      match
        Core.Design_flow.measure multi.Core.Design_flow.combined
          ~iterations:30 ()
      with
      | Error e -> fail_flow e
      | Ok r ->
          check bool "combined guarantee holds" true
            (Rational.compare
               (Sim.Platform_sim.steady_throughput r)
               (Option.get multi.Core.Design_flow.combined.Core.Design_flow.guarantee)
            >= 0))

let test_run_many_rejects_bad_member () =
  let dead =
    match
      Application.make ~name:"dead"
        ~actors:
          [ { Application.a_name = "P"; a_implementations = [ impl "p" ] } ]
        ~channels:
          [
            Application.channel ~name:"self" ~source:"P" ~production:1
              ~target:"P" ~consumption:1 ();
          ]
        ()
    with
    | Ok app -> app
    | Error e -> Alcotest.failf "app: %s" e
  in
  let platform =
    match
      Arch.Platform.make ~name:"p1" ~tiles:[ Arch.Tile.master "tile0" ]
        (Arch.Platform.Point_to_point Arch.Fsl.default)
    with
    | Ok p -> p
    | Error e -> Alcotest.failf "platform: %s" e
  in
  match Core.Design_flow.run_many [ tiny_app "ok" 10; dead ] platform () with
  | Error (Core.Flow_error.Application_rejected { application; _ } as e) ->
      check Alcotest.string "names the culprit" "dead" application;
      check bool "report names it too" true
        (contains "dead" (Core.Flow_error.to_string e))
  | Error e -> Alcotest.failf "wrong error: %s" (Core.Flow_error.to_string e)
  | Ok _ -> Alcotest.fail "deadlocking member accepted"

let test_dse () =
  let app = figure2_app () in
  let points, failures =
    Core.Dse.explore app ~tile_counts:[ 1; 2; 3 ]
      ~interconnects:[ Arch.Template.Use_fsl Arch.Fsl.default ]
      ()
  in
  check int "all points feasible" 0 (List.length failures);
  check int "three points" 3 (List.length points);
  List.iter
    (fun (p : Core.Dse.point) ->
      check bool "area positive" true (p.Core.Dse.slices > 0);
      check bool "guarantee present" true (p.Core.Dse.guarantee <> None))
    points;
  let front = Core.Dse.pareto points in
  check bool "front not empty" true (front <> []);
  check bool "front within points" true
    (List.for_all (fun p -> List.memq p points) front);
  (* no point of the front is dominated by any other point *)
  List.iter
    (fun (p : Core.Dse.point) ->
      List.iter
        (fun (other : Core.Dse.point) ->
          match (other.Core.Dse.guarantee, p.Core.Dse.guarantee) with
          | Some og, Some pg ->
              check bool "not dominated" false
                (Rational.compare og pg > 0 && other.Core.Dse.slices < p.Core.Dse.slices)
          | _ -> ())
        points)
    front;
  (* area budget selection *)
  let huge = Core.Dse.best_under_area points ~max_slices:max_int in
  check bool "best exists under infinite budget" true (huge <> None);
  check bool "nothing fits zero budget" true
    (Core.Dse.best_under_area points ~max_slices:0 = None);
  (* the point table is the summary table plus a wall-time column *)
  let lines pp rows =
    String.split_on_char '\n' (Format.asprintf "%a" pp rows)
    |> List.filter (( <> ) "")
  in
  List.iter2
    (fun timed plain ->
      check bool "one column wider" true
        (String.length timed > String.length plain);
      check Alcotest.string "same row without its time column" plain
        (String.sub timed 0 (String.length plain)))
    (lines Core.Dse.pp_table points)
    (lines Core.Dse.pp_summary_table (List.map Core.Dse.summarize points))

(* tie rules of the result helpers: the Pareto front keeps sweep order
   among equal areas, best-under-area keeps the first of equal guarantees,
   so the best point of the front has the fewest slices among the highest
   guarantees (the anytime sweep's "tightest bound so far") *)
let test_dse_tie_rules () =
  let summary ic tiles g slices =
    {
      Core.Dse.s_interconnect = ic;
      s_tile_count = tiles;
      s_guarantee = Option.map (Rational.make 1) g;
      s_slices = slices;
    }
  in
  let a = summary "fsl" 1 (Some 10) 100
  and b = summary "fsl" 2 (Some 5) 300
  and c = summary "noc" 1 (Some 5) 200
  and d = summary "noc" 2 (Some 5) 200
  and e = summary "fsl" 3 None 50 in
  let sweep = [ a; b; c; d; e ] in
  let front = Core.Dse.pareto_summaries sweep in
  check bool "front: by area, sweep order among equal areas" true
    (front = [ a; c; d ]);
  let best max_slices = Core.Dse.best_summary sweep ~max_slices in
  check bool "first of the equal guarantees wins" true (best max_int = Some b);
  check bool "budget excludes larger points" true (best 250 = Some c);
  check bool "lower guarantee when nothing better fits" true
    (best 150 = Some a);
  check bool "no guarantee, no best" true (best 60 = None);
  check bool "best of the front: fewest slices" true
    (Core.Dse.best_summary front ~max_slices:max_int = Some c)

let test_heterogeneous_selection () =
  (* the binder must pick the hardware implementation on the IP tile *)
  let seq = Mjpeg.Streams.synthetic () in
  let app =
    match
      Mjpeg.Mjpeg_app.heterogeneous_application
        ~stream:seq.Mjpeg.Streams.seq_stream ()
    with
    | Ok app -> app
    | Error e -> Alcotest.failf "app: %s" e
  in
  let platform =
    match
      Arch.Platform.make ~name:"hetero"
        ~tiles:
          [
            Arch.Tile.master "tile0";
            Arch.Tile.slave "tile1";
            Arch.Tile.ip_block ~name:"tile2" ~ip:"idct_core";
            Arch.Tile.slave "tile3";
            Arch.Tile.slave "tile4";
          ]
        (Arch.Platform.Point_to_point Arch.Fsl.default)
    with
    | Ok p -> p
    | Error e -> Alcotest.failf "platform: %s" e
  in
  match
    Core.Design_flow.run app platform
      ~options:
        {
          Mapping.Flow_map.default_options with
          fixed = Experiments.five_tile_binding;
        }
      ()
  with
  | Error e -> fail_flow e
  | Ok flow ->
      let impl =
        Mapping.Binding.implementation app platform
          flow.Core.Design_flow.mapping.Mapping.Flow_map.binding "IDCT"
      in
      check Alcotest.string "hardware implementation selected" "idct_core"
        impl.Appmodel.Actor_impl.processor_type;
      (* and the platform still executes and honours the bound *)
      (match Core.Design_flow.measure flow ~iterations:24 () with
      | Error e -> fail_flow e
      | Ok r ->
          check bool "guarantee holds with IP tile" true
            (Rational.compare
               (Sim.Platform_sim.steady_throughput r)
               (Option.get flow.Core.Design_flow.guarantee)
            >= 0))

let () =
  Alcotest.run "flow"
    [
      ( "design_flow",
        [
          Alcotest.test_case "end to end" `Quick test_flow_runs_end_to_end;
          Alcotest.test_case "rejects bad application" `Quick
            test_flow_rejects_bad_application;
          Alcotest.test_case "measurement respects guarantee" `Quick
            test_flow_measurement_respects_guarantee;
          Alcotest.test_case "expected throughput" `Quick test_expected_throughput;
        ] );
      ( "report",
        [
          Alcotest.test_case "units and bounds" `Quick test_report_units_and_bounds;
          Alcotest.test_case "tables render" `Quick test_report_tables_render;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "noc area" `Quick test_noc_area_experiment;
          Alcotest.test_case "figure 4" `Quick test_fig4_experiment;
          Alcotest.test_case "figure 6 guarantee" `Slow test_figure6_row_guarantee;
          Alcotest.test_case "figure 6 csv pinned" `Quick
            test_figure6_csv_pinned;
          Alcotest.test_case "figure 6 mcm matches csv" `Slow
            test_mcm_matches_figure6_csv;
          Alcotest.test_case "analysis methods agree on workloads" `Quick
            test_analysis_methods_agree_on_workloads;
          Alcotest.test_case "figure 6 live matches csv" `Slow
            test_figure6_live_matches_csv;
          Alcotest.test_case "ca study" `Slow test_ca_study;
          Alcotest.test_case "table 1" `Slow test_table1;
          Alcotest.test_case "case study mcm pinned" `Quick
            test_case_study_mcm_pinned;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "application merge" `Quick test_application_merge;
          Alcotest.test_case "run many" `Quick test_run_many;
          Alcotest.test_case "run many rejects bad member" `Quick
            test_run_many_rejects_bad_member;
          Alcotest.test_case "design space exploration" `Quick test_dse;
          Alcotest.test_case "heterogeneous selection" `Slow
            test_heterogeneous_selection;
          Alcotest.test_case "dse result tie rules" `Quick test_dse_tie_rules;
        ] );
    ]
