module Application = Appmodel.Application
module Rational = Sdf.Rational

type point = {
  tile_count : int;
  interconnect : Arch.Template.interconnect_choice;
  guarantee : Rational.t option;
  slices : int;
  flow_seconds : float;
  flow : Design_flow.t;
}

let interconnect_label = function
  | Arch.Template.Use_fsl _ -> "fsl"
  | Arch.Template.Use_noc _ -> "noc"

let platform_slices (flow : Design_flow.t) =
  let connections =
    List.length
      flow.Design_flow.mapping.Mapping.Flow_map.expansion
        .Mapping.Comm_map.inter_channels
  in
  let area =
    Arch.Area.add
      (Arch.Area.sum
         (List.map Arch.Area.tile (Arch.Platform.tiles flow.Design_flow.platform)))
      (Arch.Platform.interconnect_area flow.Design_flow.platform ~connections)
  in
  area.Arch.Area.slices

(* one task per design point, in the sequential sweep's order:
   interconnect outer, tile count inner *)
let sweep_combos app ?tile_counts ?interconnects () =
  let tile_counts =
    match tile_counts with
    | Some counts -> counts
    | None ->
        let actors = List.length (Application.actor_names app) in
        List.init actors (fun i -> i + 1)
  in
  let interconnects =
    Option.value
      ~default:
        [
          Arch.Template.Use_fsl Arch.Fsl.default;
          Arch.Template.Use_noc Arch.Noc.default_config;
        ]
      interconnects
  in
  List.concat_map
    (fun choice -> List.map (fun tiles -> (choice, tiles)) tile_counts)
    interconnects

(* every task builds its own flow — platform, mapping, simulator state and
   metrics registries are all created per [run_auto] call (re-entrancy
   audit in DESIGN.md §3e), so design points never share mutable state *)
let eval_point app options (choice, tile_count) =
  let options =
    Option.map
      (fun (o : Mapping.Flow_map.options) ->
        {
          o with
          Mapping.Flow_map.fixed =
            List.filter (fun (_, t) -> t < tile_count) o.fixed;
        })
      options
  in
  let start = Exec.Clock.now () in
  match Design_flow.run_auto app ~tiles:tile_count ?options choice () with
  | Error reason ->
      Either.Right
        (tile_count, interconnect_label choice, Flow_error.to_string reason)
  | Ok flow ->
      Either.Left
        {
          tile_count;
          interconnect = choice;
          guarantee = flow.Design_flow.guarantee;
          slices = platform_slices flow;
          flow_seconds = Exec.Clock.elapsed_since start;
          flow;
        }

(* export the shared analysis machinery's activity during one sweep: the
   cache and mcm counters are process-wide, so per-run numbers are
   snapshot deltas *)
let export_memo_delta m ~before ~mcm_before =
  let d = Sdf.Memo.delta ~before ~after:(Sdf.Throughput.memo_stats ()) in
  let open Obs.Metrics in
  incr m ~by:d.Sdf.Memo.hits "sdf.memo.hits";
  incr m ~by:d.Sdf.Memo.misses "sdf.memo.misses";
  incr m ~by:d.Sdf.Memo.evictions "sdf.memo.evictions";
  gauge_set m "sdf.memo.entries" d.Sdf.Memo.size;
  let mcm = Sdf.Throughput.mcm_stats () in
  incr m
    ~by:(mcm.Sdf.Throughput.runs - mcm_before.Sdf.Throughput.runs)
    "sdf.mcm.runs";
  incr m
    ~by:(mcm.Sdf.Throughput.fallbacks - mcm_before.Sdf.Throughput.fallbacks)
    "sdf.mcm.fallbacks"

let rec take n = function
  | [] -> ([], [])
  | xs when n <= 0 -> ([], xs)
  | x :: xs ->
      let chunk, rest = take (n - 1) xs in
      (x :: chunk, rest)

(* The one sweep loop. [combos] are evaluated [chunk] at a time: [eval]
   gets the pool (one round per chunk) or, at [jobs <= 1], no pool at all,
   so a sequential sweep can itself run inside a task of an outer pool
   (the conformance Pareto oracle). Before each chunk [stop] may end the
   sweep; after each chunk [on_chunk] receives the chunk and its outcomes
   in sweep order. Returns the reason [stop] gave, if it fired. *)
let sweep ~jobs ~chunk ~stop ~on_chunk eval combos =
  let run pool =
    let rec loop = function
      | [] -> None
      | pending -> (
          match stop () with
          | Some _ as reason -> reason
          | None ->
              let now, rest = take chunk pending in
              on_chunk now (eval pool now);
              loop rest)
    in
    loop combos
  in
  if jobs <= 1 then run None
  else Exec.Pool.with_pool ~jobs (fun pool -> run (Some pool))

(* one chunk holding every combo — all points in one pool round, no
   barrier — and no budget: an exception inside a point escapes *)
let explore app ?tile_counts ?interconnects ?options ?(jobs = 1) () =
  let combos = sweep_combos app ?tile_counts ?interconnects () in
  let eval_one = eval_point app options in
  let outcomes = ref [] in
  ignore
    (sweep ~jobs ~chunk:(List.length combos)
       ~stop:(fun () -> None)
       ~on_chunk:(fun _ chunk_outcomes -> outcomes := chunk_outcomes)
       (fun pool chunk ->
         match pool with
         | None -> List.map eval_one chunk
         | Some pool -> Exec.Pool.map pool eval_one chunk)
       combos);
  List.partition_map Fun.id !outcomes

(* --- results --------------------------------------------------------------------- *)

type summary = {
  s_interconnect : string;
  s_tile_count : int;
  s_guarantee : Rational.t option;
  s_slices : int;
}

let summarize p =
  {
    s_interconnect = interconnect_label p.interconnect;
    s_tile_count = p.tile_count;
    s_guarantee = p.guarantee;
    s_slices = p.slices;
  }

(* Every result helper works on summaries; [summary] projects the caller's
   rows (points or summaries) onto them, so each rule exists once. *)

let dominates a b =
  match (a.s_guarantee, b.s_guarantee) with
  | Some ga, Some gb ->
      Rational.compare ga gb >= 0
      && a.s_slices <= b.s_slices
      && (Rational.compare ga gb > 0 || a.s_slices < b.s_slices)
  | Some _, None -> true
  | None, _ -> false

let front summary rows =
  let pairs = List.map (fun row -> (summary row, row)) rows in
  pairs
  |> List.filter (fun (s, _) ->
         s.s_guarantee <> None
         && not (List.exists (fun (other, _) -> dominates other s) pairs))
  |> List.stable_sort (fun (a, _) (b, _) -> compare a.s_slices b.s_slices)
  |> List.map snd

(* highest guarantee within the area budget; on equal guarantees the
   earliest row wins *)
let best summary rows ~max_slices =
  List.fold_left
    (fun best row ->
      let s = summary row in
      match (s.s_guarantee, best) with
      | None, _ -> best
      | Some _, _ when s.s_slices > max_slices -> best
      | Some _, None -> Some (s, row)
      | Some g, Some (current, _) -> (
          match current.s_guarantee with
          | Some gc when Rational.compare gc g >= 0 -> best
          | Some _ | None -> Some (s, row)))
    None rows
  |> Option.map snd

let guarantee_string = function
  | Some g -> Rational.to_string g
  | None -> "-"

let pp_rows summary ?time ppf rows =
  let timed = Option.is_some time in
  Format.fprintf ppf "@[<v>%-6s %-6s %16s %10s" "interc" "tiles"
    "guarantee(it/c)" "slices";
  if timed then Format.fprintf ppf " %9s" "time(s)";
  Format.fprintf ppf "@,%s@," (String.make (if timed then 52 else 41) '-');
  List.iter
    (fun row ->
      let s = summary row in
      Format.fprintf ppf "%-6s %-6d %16s %10d" s.s_interconnect s.s_tile_count
        (guarantee_string s.s_guarantee)
        s.s_slices;
      Option.iter (fun time -> Format.fprintf ppf " %9.2f" (time row)) time;
      Format.fprintf ppf "@,")
    rows;
  Format.fprintf ppf "@]"

let pareto_summaries = front Fun.id
let pareto = front summarize
let best_summary = best Fun.id
let best_under_area = best summarize
let pp_summary_table ppf summaries = pp_rows Fun.id ppf summaries
let pp_table ppf points =
  pp_rows summarize ~time:(fun p -> p.flow_seconds) ppf points

(* --- anytime exploration ----------------------------------------------------- *)

type degradation = {
  d_reason : Exec.Budget.reason;
  d_evaluated : int;
  d_skipped : int;
  d_best : summary option;
}

type anytime = {
  a_summaries : summary list;
  a_failures : (int * string * string) list;
  a_resumed : int;
  a_degradation : degradation option;
}

(* failure strings recorded in checkpoints must not mention task indices or
   wall times: a resumed sweep re-runs with different indices and must still
   print byte-identical reports *)
let budget_failure_reason (f : Exec.Pool.task_failure) =
  match f with
  | Exec.Pool.Raised e -> e.Exec.Pool.message
  | Exec.Pool.Gave_up e ->
      Printf.sprintf "gave up after %d attempts: %s" e.Exec.Pool.attempts
        e.Exec.Pool.message
  | Exec.Pool.Timed_out { attempts; budget; _ } ->
      let budget_s =
        match budget with
        | Exec.Pool.Per_attempt t -> Printf.sprintf "%gs budget" t
        | Exec.Pool.Batch_deadline -> "batch deadline"
      in
      Printf.sprintf "timed out (%s, %d attempt%s)" budget_s attempts
        (if attempts = 1 then "" else "s")
  | Exec.Pool.Cancelled _ -> "cancelled"

let explore_anytime app ?tile_counts ?interconnects ?options ?(jobs = 1)
    ?deadline ?task_timeout ?retry ?cancel ?checkpoint ?resume ?metrics () =
  let ( let* ) = Result.bind in
  let combos = sweep_combos app ?tile_counts ?interconnects () in
  let memo_before = Sdf.Throughput.memo_stats () in
  let mcm_before = Sdf.Throughput.mcm_stats () in
  let app_name = Application.name app in
  let combo_key (choice, tiles) = (interconnect_label choice, tiles) in
  let* prior =
    match resume with
    | None -> Ok []
    | Some path -> (
        match Dse_checkpoint.read ~path with
        | Error _ as e -> e
        | Ok ck when ck.Dse_checkpoint.app <> app_name ->
            Error
              (Printf.sprintf
                 "checkpoint %s was written for application %S, not %S" path
                 ck.Dse_checkpoint.app app_name)
        | Ok ck -> Ok ck.Dse_checkpoint.entries)
  in
  let tbl : (string * int, Dse_checkpoint.entry) Hashtbl.t =
    Hashtbl.create 64
  in
  (* only adopt entries this sweep would actually evaluate: a checkpoint
     from a wider sweep must not inject foreign design points *)
  List.iter
    (fun e ->
      let key = Dse_checkpoint.entry_key e in
      if List.exists (fun c -> combo_key c = key) combos then
        Hashtbl.replace tbl key e)
    prior;
  let resumed = Hashtbl.length tbl in
  let pending =
    List.filter (fun c -> not (Hashtbl.mem tbl (combo_key c))) combos
  in
  let evaluated = ref 0 in
  let ckpt_writes = ref 0 in
  let timeouts = ref 0 in
  let gave_up = ref 0 in
  let retries = ref 0 in
  let current_entries () =
    List.filter_map (fun c -> Hashtbl.find_opt tbl (combo_key c)) combos
  in
  let write_ckpt () =
    match checkpoint with
    | None -> ()
    | Some path ->
        Dse_checkpoint.write ~path
          { Dse_checkpoint.app = app_name; entries = current_entries () };
        incr ckpt_writes
  in
  let expired () =
    match deadline with Some d -> Exec.Budget.expired d | None -> false
  in
  let cancelled () =
    match cancel with Some t -> Exec.Budget.cancelled t | None -> false
  in
  let record combo entry =
    Hashtbl.replace tbl (combo_key combo) entry;
    incr evaluated
  in
  let process combo outcome =
    (match outcome with
    | Error (Exec.Pool.Timed_out { attempts; _ }) ->
        incr timeouts;
        retries := !retries + attempts - 1
    | Error (Exec.Pool.Gave_up e) ->
        incr gave_up;
        retries := !retries + e.Exec.Pool.attempts - 1
    | Ok _ | Error _ -> ());
    let label, tiles = combo_key combo in
    match outcome with
    | Ok (Either.Left point) ->
        record combo
          (Dse_checkpoint.Feasible
             {
               interconnect = label;
               tiles;
               guarantee = point.guarantee;
               slices = point.slices;
             })
    | Ok (Either.Right (tiles, label, reason)) ->
        record combo (Dse_checkpoint.Failed { interconnect = label; tiles; reason })
    | Error (Exec.Pool.Cancelled _) ->
        (* skipped: will be re-run on resume *)
        ()
    | Error (Exec.Pool.Timed_out _) when expired () ->
        (* the sweep deadline, not the per-task budget, cut this point
           short — treat as skipped so resume re-runs it with full time *)
        ()
    | Error f ->
        record combo
          (Dse_checkpoint.Failed
             { interconnect = label; tiles; reason = budget_failure_reason f })
  in
  let eval_one = eval_point app options in
  let stop_reason =
    sweep ~jobs ~chunk:(Stdlib.max 1 jobs)
      ~stop:(fun () ->
        if cancelled () then Some Exec.Budget.Cancelled
        else if expired () then Some Exec.Budget.Deadline
        else None)
      ~on_chunk:(fun chunk outcomes ->
        List.iter2 process chunk outcomes;
        write_ckpt ())
      (fun pool chunk ->
        match pool with
        | None ->
            List.mapi
              (fun i combo ->
                Exec.Pool.run_budgeted ?timeout:task_timeout ?deadline ?retry
                  ?cancel ~task_index:i (fun () -> eval_one combo))
              chunk
        | Some pool ->
            Exec.Pool.map_result pool ?timeout:task_timeout ?deadline ?retry
              ?cancel eval_one chunk)
      pending
  in
  (* always leave a final checkpoint: a run stopped before its first chunk
     must still produce a resumable (possibly empty) file, and --resume of
     a finished sweep is then a no-op rather than an error *)
  write_ckpt ();
  let summaries, failures =
    List.partition_map
      (fun entry ->
        match entry with
        | Dse_checkpoint.Feasible { interconnect; tiles; guarantee; slices } ->
            Either.Left
              {
                s_interconnect = interconnect;
                s_tile_count = tiles;
                s_guarantee = guarantee;
                s_slices = slices;
              }
        | Dse_checkpoint.Failed { interconnect; tiles; reason } ->
            Either.Right (tiles, interconnect, reason))
      (current_entries ())
  in
  let skipped = List.length combos - Hashtbl.length tbl in
  let degradation =
    if skipped = 0 then None
    else
      let d_reason =
        match stop_reason with
        | Some r -> r
        | None ->
            if cancelled () then Exec.Budget.Cancelled
            else Exec.Budget.Deadline
      in
      (* the front, sorted by area, puts the fewest slices first among the
         highest guarantees *)
      Some
        {
          d_reason;
          d_evaluated = !evaluated;
          d_skipped = skipped;
          d_best =
            best_summary (pareto_summaries summaries) ~max_slices:max_int;
        }
  in
  (match metrics with
  | None -> ()
  | Some m ->
      let open Obs.Metrics in
      incr m ~by:!evaluated "dse.points.evaluated";
      incr m ~by:skipped "dse.points.skipped";
      incr m ~by:resumed "dse.points.resumed";
      incr m ~by:!ckpt_writes "dse.checkpoint.writes";
      incr m ~by:!timeouts "exec.task.timeouts";
      incr m ~by:!gave_up "exec.task.gave_up";
      incr m ~by:!retries "exec.task.retries";
      export_memo_delta m ~before:memo_before ~mcm_before);
  Ok
    {
      a_summaries = summaries;
      a_failures = failures;
      a_resumed = resumed;
      a_degradation = degradation;
    }

let pp_degradation ppf d =
  Format.fprintf ppf
    "@[<v>partial result (%a): %d point%s evaluated, %d skipped@,%t@]"
    Exec.Budget.pp_reason d.d_reason d.d_evaluated
    (if d.d_evaluated = 1 then "" else "s")
    d.d_skipped
    (fun ppf ->
      match d.d_best with
      | None -> Format.fprintf ppf "no feasible point found yet"
      | Some s ->
          Format.fprintf ppf "tightest bound so far: %s/%d tiles, %s it/cycle, %d slices"
            s.s_interconnect s.s_tile_count
            (guarantee_string s.s_guarantee)
            s.s_slices)
