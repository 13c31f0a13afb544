(* One run of one workload of the flow's benchmark. run.py builds and
   drives this program and turns its output into the benchmark's metrics;
   see README.md for the workloads and the metric definitions.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--setup-only] [--daemon PATH] [--work DIR]

   The program prints raw measurements on stdout, one JSON object per line:
   every op's wall time and outputs as the op completes, then a summary with
   the measured phase's wall time, the peak resident set of the process
   that did the work, the times of the host reference (host.ml) taken
   between ops and, with --trace 1, the per-layer figures. --setup-only
   stops where the first op would start; run.py times such runs from the
   outside for [setup_s]. *)

module Json = Jsonkit.Json
module Rational = Sdf.Rational
module Throughput = Sdf.Throughput
module W = Gen.Workload

(* --- raw output ------------------------------------------------------------- *)

(* floats print with all their digits, which Jsonkit's fixed %.6f would
   not *)
type j = I of int | F of float | S of string | B of bool | L of j list | O of (string * j) list

let rec emit b = function
  | I i -> Buffer.add_string b (string_of_int i)
  | F f ->
      if Float.is_finite f then Printf.bprintf b "%.17g" f
      else Buffer.add_string b "null"
  | S s -> Buffer.add_string b (Json.quote s)
  | B v -> Buffer.add_string b (if v then "true" else "false")
  | L l ->
      Buffer.add_char b '[';
      List.iteri (fun i v -> if i > 0 then Buffer.add_char b ','; emit b v) l;
      Buffer.add_char b ']'
  | O kv ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (Json.quote k);
          Buffer.add_char b ':';
          emit b v)
        kv;
      Buffer.add_char b '}'

(* Ops are printed as they complete, one JSON object per line, so that a
   long run's bookkeeping does not grow the resident set it reports; the
   summary object comes last. *)
let print_json v =
  let b = Buffer.create 256 in
  emit b v;
  Buffer.add_char b '\n';
  print_string (Buffer.contents b)

let rational = function
  | None -> L []
  | Some r -> L [ I (Rational.numerator r); I (Rational.denominator r) ]

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench: " ^ msg);
      exit 2)
    fmt

let get what = function Ok v -> v | Error e -> fail "%s: %s" what e
let now = Unix.gettimeofday

(* VmHWM of a process, in KiB *)
let peak_rss_kb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> 0
            | line -> (
                try Scanf.sscanf line "VmHWM: %d kB" Fun.id
                with Scanf.Scan_failure _ | Failure _ | End_of_file -> scan ())
          in
          scan ())

let median l =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

let buffer_bytes (m : Mapping.Flow_map.t) =
  List.fold_left
    (fun acc (t : Mapping.Memory_dim.tile_report) -> acc + t.buffer_bytes)
    0 m.Mapping.Flow_map.memory.Mapping.Memory_dim.tiles

(* --- the traced run's accumulators ---------------------------------------- *)

(* Layer figures are sums over the traced ops, divided by their number at
   the end; cache and GC figures are sums over the untraced ops. *)
module Acc = struct
  let layers : (string, float) Hashtbl.t = Hashtbl.create 64
  let top = ref 0.0
  let traced = ref [] (* replay wall times *)
  let real = ref [] (* wall times of the untraced ops the replays stand for *)
  let hits = ref 0
  let misses = ref 0
  let alloc_words = ref 0.0
  let majors = ref 0
  let untraced_ops = ref 0
  let extra : (string * float) list ref = ref []

  let add name v =
    Hashtbl.replace layers name
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt layers name))

  let replay f =
    ignore (Span.take ());
    Span.on := true;
    let t0 = now () in
    let r = Fun.protect ~finally:(fun () -> Span.on := false) f in
    let dt = now () -. t0 in
    let totals, top_level = Span.take () in
    List.iter (fun (k, v) -> add k v) totals;
    top := !top +. top_level;
    traced := dt :: !traced;
    r

  let allocated () =
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

  (* an untraced op, [ops] units of work (design points for a sweep):
     cache and GC deltas *)
  let untraced ~ops f =
    let m0 = Throughput.memo_stats () in
    let a0 = allocated () and g0 = (Gc.quick_stat ()).Gc.major_collections in
    let r = f () in
    let m1 = Throughput.memo_stats () in
    hits := !hits + m1.Sdf.Memo.hits - m0.Sdf.Memo.hits;
    misses := !misses + m1.Sdf.Memo.misses - m0.Sdf.Memo.misses;
    alloc_words := !alloc_words +. allocated () -. a0;
    majors := !majors + (Gc.quick_stat ()).Gc.major_collections - g0;
    untraced_ops := !untraced_ops + ops;
    r

  let get name = Option.value ~default:0.0 (Hashtbl.find_opt layers name)
  let ratio a b = if b > 0.0 then a /. b else 0.0

  let metrics () =
    let n = float_of_int (max 1 (List.length !traced)) in
    let per_op =
      Hashtbl.fold
        (fun k v acc ->
          match k with
          | "sdf.hsdf.instances" | "sdf.hsdf.edges" | "sdf.mcm.fallbacks"
          | "sdf.mcm.runs" | "sim.cycles" ->
              acc
          | _ -> (k, v /. n) :: acc)
        layers []
    in
    let mcm_runs = get "sdf.mcm.runs" and fallbacks = get "sdf.mcm.fallbacks" in
    let expansions = Float.max 1.0 mcm_runs in
    let u = float_of_int (max 1 !untraced_ops) in
    let h = float_of_int !hits and m = float_of_int !misses in
    per_op
    @ [
        ("sdf.mcm.runs", mcm_runs /. n);
        ("sdf.mcm.fallback_ratio", ratio fallbacks (mcm_runs +. fallbacks));
        ("sdf.hsdf.instances", get "sdf.hsdf.instances" /. expansions);
        ("sdf.hsdf.edges", get "sdf.hsdf.edges" /. expansions);
        ("sim.cycles", get "sim.cycles" /. n);
        ( "sim.host_ns_per_cycle",
          ratio (get "sim.platform_sim_s" *. 1e9) (get "sim.cycles") );
        ("sdf.memo.hits", h /. u);
        ("sdf.memo.misses", m /. u);
        ("sdf.memo.hit_ratio", ratio h (h +. m));
        ("gc.alloc_mb_per_op", !alloc_words *. 8.0 /. 1e6 /. u);
        ("gc.major_per_op", float_of_int !majors /. u);
        ( "trace.coverage",
          ratio !top (List.fold_left ( +. ) 0.0 !real) );
        ( "trace.overhead",
          ratio (median !traced) (median !real) -. 1.0 );
      ]
    @ !extra
end

let guard_or_die what (replayed : Replay.flow) reference =
  match Replay.guard replayed reference with
  | Ok () -> ()
  | Error e -> fail "traced replay of %s does not match the library: %s" what e

(* --- shared set-up ------------------------------------------------------------ *)

let fsl = Arch.Template.Use_fsl Arch.Fsl.default
let noc = Arch.Template.Use_noc Arch.Noc.default_config
let label = Core.Dse.interconnect_label

(* the case study's application, calibrated as [mamps_flow mjpeg] and
   [mamps_flow dse] do, and the platform templates it maps onto *)
let mjpeg_setup () =
  let app =
    get "calibration" (Experiments.calibrated_mjpeg (Mjpeg.Streams.synthetic ()))
  in
  List.iter
    (fun c -> ignore (get "template" (Arch.Template.for_application app c)))
    [ fsl; noc ];
  app

(* run [unit] until [seconds] have passed and at least [min_units] units
   ran; returns the units' results *)
let loop ?(min_units = 1) ~seconds unit =
  let start = now () in
  let rec go i acc =
    if i >= min_units && now () -. start >= seconds then List.rev acc
    else go (i + 1) (unit i :: acc)
  in
  go 0 []

(* --- mjpeg_map ------------------------------------------------------------------- *)

let mjpeg_map ~seed ~seconds ~trace =
  let app = mjpeg_setup () in
  let options = Experiments.flow_options in
  (* the seed only picks which interconnect goes first *)
  let first, second = if seed mod 2 = 0 then (fsl, noc) else (noc, fsl) in
  let untraced_op choice =
    Throughput.memo_clear ();
    let t0 = now () in
    let r = Core.Design_flow.run_auto app ~options choice () in
    let dt = now () -. t0 in
    match r with
    | Error e -> fail "mjpeg flow failed: %s" (Core.Flow_error.to_string e)
    | Ok f -> (dt, f.Core.Design_flow.mapping)
  in
  let traced_op choice =
    let reference =
      Acc.untraced ~ops:1 (fun () -> get "mjpeg flow" (Replay.cold_run_auto app options choice))
    in
    Acc.real := reference.Replay.ref_seconds :: !Acc.real;
    let replayed = Acc.replay (fun () -> get "mjpeg replay" (Replay.flow app options choice)) in
    guard_or_die "mjpeg_map" replayed reference;
    (reference.Replay.ref_seconds, reference.Replay.ref_mapping)
  in
  let op choice =
    let dt, m = if trace then traced_op choice else untraced_op choice in
    print_json
      (O
         [
           ("s", F dt);
           ("interconnect", S (label choice));
           ("guarantee", rational (Mapping.Flow_map.throughput m));
           ("buffer_scale", I m.Mapping.Flow_map.buffer_scale);
           ("buffer_bytes", I (buffer_bytes m));
         ]);
    dt
  in
  (* FSL and NoC alternate, and every unit runs one of each *)
  let pairs =
    loop ~seconds (fun _ ->
        let a = op first in
        let b = op second in
        Host.burst 10;
        a +. b)
  in
  (List.fold_left ( +. ) 0.0 pairs, [])

(* --- dse_sweep ------------------------------------------------------------------- *)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let k = Gen.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(k);
    a.(k) <- t
  done;
  Array.to_list a

let dse_sweep ~seed ~seconds ~trace =
  let app = mjpeg_setup () in
  let options = Experiments.flow_options_with ~analysis:`Auto () in
  (* the seed only orders the tile counts, afresh for every sweep: the
     order decides how the pool packs the slow five-tile points, so one
     order per run would make throughput a property of the seed *)
  let rng = Gen.Rng.create seed in
  let interconnects = [ fsl; noc ] in
  let sweep () =
    let tile_counts = shuffle rng [ 1; 2; 3; 4; 5 ] in
    Throughput.memo_clear ();
    let t0 = now () in
    let points, failures =
      Core.Dse.explore app ~tile_counts ~interconnects ~options ~jobs:2 ()
    in
    (points, failures, now () -. t0)
  in
  let busy = ref 0.0 and walls = ref 0.0 and inflation = ref [] in
  (* a point as [Dse.explore] runs it, replayed, against a cold j1 run *)
  let trace_point (p : Core.Dse.point) =
    let options =
      {
        options with
        Mapping.Flow_map.fixed =
          List.filter (fun (_, t) -> t < p.tile_count) options.Mapping.Flow_map.fixed;
      }
    in
    let reference =
      get "dse point" (Replay.cold_run_auto app ~tiles:p.tile_count options p.interconnect)
    in
    Acc.real := reference.Replay.ref_seconds :: !Acc.real;
    let replayed =
      Acc.replay (fun () ->
          get "dse replay" (Replay.flow app ~tiles:p.tile_count options p.interconnect))
    in
    guard_or_die "dse_sweep" replayed reference;
    inflation := (p.flow_seconds /. reference.Replay.ref_seconds) :: !inflation
  in
  let unit _ =
    let points, failures, wall =
      if trace then (
        let ((points, _, wall) as r) = Acc.untraced ~ops:10 sweep in
        busy := !busy +. List.fold_left (fun a (p : Core.Dse.point) -> a +. p.flow_seconds) 0.0 points;
        walls := !walls +. wall;
        List.iter trace_point points;
        r)
      else sweep ()
    in
    Host.burst_both 10;
    let front = Core.Dse.pareto points in
    let best =
      List.fold_left
        (fun acc (p : Core.Dse.point) ->
          match (acc, p.guarantee) with
          | None, Some _ -> Some p
          | Some (b : Core.Dse.point), Some g
            when Rational.compare g (Option.get b.guarantee) > 0 ->
              Some p
          | _ -> acc)
        None front
    in
    print_json
      (O
        [
          ("wall", F wall);
          ( "points",
            L
              (List.map
                 (fun (p : Core.Dse.point) ->
                   O
                     [
                       ("s", F p.flow_seconds);
                       ("interconnect", S (label p.interconnect));
                       ("tiles", I p.tile_count);
                     ])
                 points) );
          ("failures", I (List.length failures));
          ( "front",
            L
              (List.map
                 (fun (p : Core.Dse.point) ->
                   L [ S (label p.interconnect); I p.tile_count; rational p.guarantee; I p.slices ])
                 front) );
          ( "best_guarantee",
            rational (Option.bind best (fun (p : Core.Dse.point) -> p.guarantee)) );
          ( "best_buffer_bytes",
            I (match best with Some p -> buffer_bytes p.flow.Core.Design_flow.mapping | None -> 0) );
        ]);
    wall
  in
  (* the tail rank is the 11th-slowest point: six sweeps keep it among
     the twelve five-tile points, whatever the machine's speed *)
  let sweeps = loop ~min_units:(if trace then 1 else 6) ~seconds unit in
  if trace then
    Acc.extra :=
      [
        ("exec.pool.busy_ratio", Acc.ratio !busy (2.0 *. !walls));
        ("exec.pool.point_inflation", median !inflation);
      ];
  (List.fold_left ( +. ) 0.0 sweeps, [])

(* --- conformance_seeds ------------------------------------------------------------ *)

(* how many seeds one pass of conformance_seeds checks: a few of them take
   hundreds of times the median seed, so the passes, not a time cut,
   decide which seeds a run contains *)
let range_size = 400

let conformance_seeds ~seed ~seconds ~trace ~work =
  let options = Conformance.Engine.default_options in
  let out_dir = Filename.concat work "conformance" in
  let op s =
    let t0 = now () in
    let report =
      Conformance.Engine.run_suite ~options ~out_dir ~base_seed:s ~count:1 ()
    in
    (now () -. t0, report)
  in
  (* the design the seed's flow produced, outside the op's time: the
     engine reports verdicts, not designs *)
  let design s =
    let w = W.generate ~config:options.gen_config ~seed:s () in
    match
      Core.Design_flow.run_auto w.W.application
        ~options:{ Mapping.Flow_map.default_options with analysis = options.analysis }
        (Conformance.Engine.interconnect_for_seed s) ()
    with
    | Ok f -> (f.Core.Design_flow.guarantee, buffer_bytes f.mapping)
    | Error _ -> (None, 0)
  in
  (* one unit is one pass over the seed range, from the seed argument
     upward and wrapping within [0, range_size), with the cache cleared at
     the start of the pass: every pass does the same work *)
  let pass _ =
    Throughput.memo_clear ();
    List.init range_size (fun i ->
        let s = (((seed + i) mod range_size) + range_size) mod range_size in
        let dt, report =
          if trace then begin
            let ((dt, _) as r) = Acc.untraced ~ops:1 (fun () -> op s) in
            Acc.real := dt :: !Acc.real;
            let w, replayed, choice, flow_options =
              Acc.replay (fun () -> get "conformance replay" (Replay.conformance options s))
            in
            guard_or_die "conformance_seeds" replayed
              (get "conformance flow"
                 (Replay.cold_run_auto w.W.application flow_options choice));
            r
          end
          else op s
        in
        Host.every 0.1;
        let guarantee, bytes = design s in
        let violations =
          List.fold_left
            (fun a c -> a + List.length c.Conformance.Engine.c_violations)
            0 report.Conformance.Engine.r_cases
        in
        print_json
          (O
            [
              ("s", F dt);
              ("seed", I s);
              ("passed", B (Conformance.Engine.passed report));
              ("cases", I (List.length report.r_cases));
              ("violations", I violations);
              ("guarantee", rational guarantee);
              ("buffer_bytes", I bytes);
            ]);
        dt)
    |> List.fold_left ( +. ) 0.0
  in
  (List.fold_left ( +. ) 0.0 (loop ~seconds pass), [])

(* --- serve_jobs ------------------------------------------------------------------- *)

type response = { status : int; body : string }

(* one request per connection, read to EOF: all the daemon speaks *)
let http ~port ~meth ~path ?(body = "") () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf
          "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: %d\r\n\
           Connection: close\r\n\r\n%s"
          meth path (String.length body) body
      in
      let rec send off =
        if off < String.length req then
          send (off + Unix.write_substring fd req off (String.length req - off))
      in
      send 0;
      let buf = Buffer.create 1024 and chunk = Bytes.create 4096 in
      let rec recv () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            recv ()
      in
      recv ();
      let raw = Buffer.contents buf in
      let status =
        try Scanf.sscanf raw "HTTP/1.1 %d" Fun.id
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> 0
      in
      let body =
        let rec find i =
          if i + 3 >= String.length raw then String.length raw
          else if String.sub raw i 4 = "\r\n\r\n" then i + 4
          else find (i + 1)
        in
        let k = find 0 in
        String.sub raw k (String.length raw - k)
      in
      { status; body })

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all with Sys_error _ -> ""

(* the daemon prints "listening on http://HOST:PORT (...)" once bound *)
let port_of_log log =
  let s = read_file log in
  let marker = "listening on http://" in
  let ml = String.length marker in
  let rec find i =
    if i + ml > String.length s then None
    else if String.sub s i ml = marker then Some (i + ml)
    else find (i + 1)
  in
  Option.bind (find 0) (fun start ->
      Option.bind (String.index_from_opt s start ':') (fun colon ->
          try Some (Scanf.sscanf (String.sub s (colon + 1) (String.length s - colon - 1)) "%d" Fun.id)
          with Scanf.Scan_failure _ | Failure _ | End_of_file -> None))

type daemon = { pid : int; port : int }

let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 20.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
        if now () > deadline then begin
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] d.pid)
        end
        else (
          Unix.sleepf 0.01;
          wait ())
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

(* boot the daemon with one worker and a fresh journal in a directory of
   its own, ready once /readyz answers 200; run [f] on it, then stop it and
   remove the directory *)
let with_daemon ~binary ~work f =
  let dir = Filename.concat work (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let journal = Filename.concat dir "journal.log" in
  (try Sys.remove journal with Sys_error _ -> ());
  let log = Filename.concat dir "daemon.log" in
  let out = Unix.openfile log [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let argv =
    [| binary; "serve"; "--port"; "0"; "--workers"; "1"; "--journal"; journal |]
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out)
      (fun () -> Unix.create_process binary argv Unix.stdin out out)
  in
  let deadline = now () +. 30.0 in
  let rec await () =
    if now () > deadline then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      fail "daemon did not become ready; log:\n%s" (read_file log)
    end
    else if fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then
      fail "daemon exited during start-up; log:\n%s" (read_file log)
    else
      match port_of_log log with
      | Some port
        when (try (http ~port ~meth:"GET" ~path:"/readyz" ()).status = 200
              with Unix.Unix_error _ -> false) ->
          { pid; port }
      | Some _ | None ->
          Unix.sleepf 0.005;
          await ()
  in
  let daemon = await () in
  Fun.protect
    ~finally:(fun () ->
      stop_daemon daemon;
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f daemon)

let query = [ ("mode", "flow"); ("wait", "1") ]

let guarantee_of_doc doc =
  match Json.member "guarantee" doc with
  | Some g -> (
      match
        ( Option.bind (Json.member "num" g) Json.to_int_opt,
          Option.bind (Json.member "den" g) Json.to_int_opt )
      with
      | Some n, Some d -> L [ I n; I d ]
      | _ -> L [])
  | None -> L []

(* The buffer memory of the design a flow job produced. The answer does
   not carry it, so the job's flow runs again in-process, on the cache the
   reference execution just filled. [Serve.Job] keeps its graph-to-
   application wrapper private; this is a copy of it (no-op actors, WCET
   from the graph, 2 KiB instruction and 1 KiB data memory). *)
let job_buffer_bytes body =
  let g = get "graph" (Sdf.Xmlio.of_string body) in
  let actors =
    List.map
      (fun (a : Sdf.Graph.actor) ->
        {
          Appmodel.Application.a_name = a.actor_name;
          a_implementations =
            [
              Appmodel.Actor_impl.make
                ~name:("noop_" ^ a.actor_name)
                ~metrics:
                  (Appmodel.Metrics.make ~wcet:a.execution_time
                     ~instruction_memory:2048 ~data_memory:1024)
                ~cycles:(Appmodel.Actor_impl.constant_cycles a.execution_time)
                (fun _ -> []);
            ];
        })
      (Sdf.Graph.actors g)
  in
  let channels =
    List.map
      (fun (c : Sdf.Graph.channel) ->
        Appmodel.Application.channel ~name:c.channel_name
          ~source:(Sdf.Graph.actor g c.source).actor_name
          ~production:c.production_rate
          ~target:(Sdf.Graph.actor g c.target).actor_name
          ~consumption:c.consumption_rate ~initial_tokens:c.initial_tokens
          ~token_bytes:(max 1 c.token_size) ())
      (Sdf.Graph.channels g)
  in
  let app =
    get "application"
      (Appmodel.Application.make ~name:(Sdf.Graph.name g) ~actors ~channels ())
  in
  match
    Core.Design_flow.run_auto app
      ~options:{ Mapping.Flow_map.default_options with analysis = `Auto }
      fsl ()
  with
  | Ok f -> buffer_bytes f.Core.Design_flow.mapping
  | Error _ -> 0

let serve_jobs ~seed ~seconds ~trace ~work ~binary =
  let answers, phase, executed, rss =
    with_daemon ~binary ~work (fun daemon ->
        (* the request stream: fresh seeded graphs, and one request in four
           resubmits an earlier one *)
        let rng = Gen.Rng.create seed in
        let fresh = Hashtbl.create 1024 and lock = Mutex.create () in
        let next () =
          Mutex.protect lock (fun () ->
              let n = Hashtbl.length fresh in
              if n > 0 && Gen.Rng.int rng 4 = 0 then
                (Hashtbl.find fresh (Gen.Rng.int rng n), true)
              else begin
                let w = W.generate ~seed:((seed * 1_000_003) + n) () in
                let body = Sdf.Xmlio.to_string w.W.graph in
                Hashtbl.replace fresh n body;
                (body, false)
              end)
        in
        Host.burst 20;
        let start = now () in
        let answers = ref [] in
        let client () =
          while now () -. start < seconds do
            let body, resubmitted = next () in
            let t0 = now () in
            let r =
              try http ~port:daemon.port ~meth:"POST" ~path:"/jobs?mode=flow&wait=1" ~body ()
              with Unix.Unix_error (e, _, _) -> { status = 0; body = Unix.error_message e }
            in
            let dt = now () -. t0 in
            Mutex.protect lock (fun () -> answers := (dt, body, resubmitted, r) :: !answers)
          done
        in
        let clients = List.init 2 (fun _ -> Thread.create client ()) in
        List.iter Thread.join clients;
        let phase = now () -. start in
        Host.burst 20;
        let executed =
          match Json.of_string (http ~port:daemon.port ~meth:"GET" ~path:"/metrics" ()).body with
          | Ok doc ->
              Option.value ~default:0
                (Option.bind (Json.member "counters" doc) (fun c ->
                     Option.bind (Json.member "serve.jobs.executed" c) Json.to_int_opt))
          | Error _ -> -1
        in
        let rss = peak_rss_kb (string_of_int daemon.pid) in
        (List.rev !answers, phase, executed, rss))
  in
  (* the reference: each distinct spec executed in-process, cold, as the
     daemon's worker did *)
  let specs = Hashtbl.create 64 in
  let spec_of body =
    match Hashtbl.find_opt specs body with
    | Some v -> v
    | None ->
        let spec = get "job spec" (Serve.Job.parse ~body ~query ~default_timeout:(Some 60.)) in
        Throughput.memo_clear ();
        let expected =
          match Serve.Job.execute spec with
          | Serve.Job.Completed doc -> guarantee_of_doc doc
          | Serve.Job.Failed _ | Serve.Job.Timed_out _ -> S "not completed"
        in
        let v = (Serve.Job.id spec, spec, expected, job_buffer_bytes body) in
        Hashtbl.replace specs body v;
        v
  in
  (* a graph's identity: everything in its XML but its name *)
  let contents = Hashtbl.create 64 in
  let content body =
    Sdf.Xmlio.to_string (Sdf.Graph.rename (get "graph" (Sdf.Xmlio.of_string body)) "g")
  in
  List.iter
      (fun (dt, body, resubmitted, r) ->
        let _, _, expected, bytes = spec_of body in
        Hashtbl.replace contents (content body) ();
        let doc = Result.to_option (Json.of_string r.body) in
        let status = Option.bind doc (fun d -> Option.bind (Json.member "status" d) Json.to_string_opt) in
        let result = Option.bind doc (Json.member "result") in
        print_json
        (O
          [
            ("s", F dt);
            ("http", I r.status);
            ("status", S (Option.value ~default:"" status));
            ("resubmitted", B resubmitted);
            ("guarantee", match result with Some d -> guarantee_of_doc d | None -> L []);
            ("expected", expected);
            ("buffer_bytes", I bytes);
          ]))
      answers;
  (* when traced, the per-layer figures: in-process re-executions after
     the phase, one untraced and one traced per distinct job, both cold *)
  let journal_path = Filename.concat work (Printf.sprintf "journal-%d.log" (Unix.getpid ())) in
  let parse_s = ref [] and execute_s = ref [] in
  if trace then begin
    let journal = fst (get "journal" (Serve.Journal.open_ journal_path)) in
    let timed name f =
      let t0 = now () in
      ignore (Span.time name f);
      now () -. t0
    in
    Hashtbl.iter
      (fun body (id, spec, _, _) ->
        Throughput.memo_clear ();
        let plain = Acc.untraced ~ops:1 (fun () -> timed "" (fun () -> Serve.Job.execute spec)) in
        Acc.real := plain :: !Acc.real;
        Throughput.memo_clear ();
        Acc.replay (fun () ->
            parse_s :=
              timed "serve.job.parse_s" (fun () ->
                  Serve.Job.parse ~body ~query ~default_timeout:(Some 60.))
              :: !parse_s;
            execute_s := timed "serve.job.execute_s" (fun () -> Serve.Job.execute spec) :: !execute_s;
            ignore
              (timed "serve.journal.append_s" (fun () ->
                   Serve.Journal.append journal (Serve.Journal.Submitted (id, spec))))))
      specs;
    Serve.Journal.close journal;
    (try Sys.remove journal_path with Sys_error _ -> ());
    let latencies = List.map (fun (dt, _, _, _) -> dt) answers in
    let resubmitted = List.filter (fun (_, _, r, _) -> r) answers in
    Acc.extra :=
      [
        ( "serve.overhead_s",
          median latencies -. median !parse_s -. median !execute_s );
        ( "serve.dedup_ratio",
          Acc.ratio (float_of_int (List.length resubmitted)) (float_of_int (List.length answers)) );
      ]
  end;
  (phase, rss, [ ("executed", I executed); ("distinct", I (Hashtbl.length contents)) ])

(* --- main --------------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let setup_only = ref false in
  let daemon = ref (Filename.concat "_build" "default/bin/mamps_flow.exe") in
  let work = ref (Filename.concat "perfbench" "_work") in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 traced run");
      ("--setup-only", Arg.Set setup_only, " stop where the first op would start");
      ("--daemon", Arg.Set_string daemon, "PATH mamps_flow binary for serve_jobs");
      ("--work", Arg.Set_string work, "DIR scratch directory for serve_jobs");
    ]
    (fun a -> raise (Arg.Bad a))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let trace = !trace = 1 and seconds = !seconds and seed = !seed and work = !work in
  (try Sys.mkdir work 0o755 with Sys_error _ -> ());
  if !setup_only then begin
    (match !workload with
    | "mjpeg_map" | "dse_sweep" -> ignore (mjpeg_setup ())
    | "conformance_seeds" -> ()
    | "serve_jobs" -> with_daemon ~binary:!daemon ~work ignore
    | w -> fail "unknown workload %S" w);
    exit 0
  end;
  (* the peak resident set is the daemon's for serve_jobs, ours otherwise *)
  let in_process (measured, extra) = (measured, peak_rss_kb "self", extra) in
  let measured, rss, extra =
    match !workload with
    | "mjpeg_map" -> in_process (mjpeg_map ~seed ~seconds ~trace)
    | "dse_sweep" -> in_process (dse_sweep ~seed ~seconds ~trace)
    | "conformance_seeds" -> in_process (conformance_seeds ~seed ~seconds ~trace ~work)
    | "serve_jobs" -> serve_jobs ~seed ~seconds ~trace ~work ~binary:!daemon
    | w -> fail "unknown workload %S" w
  in
  let layers =
    if trace then [ ("layers", O (List.map (fun (k, v) -> (k, F v)) (Acc.metrics ()))) ]
    else []
  in
  print_json
    (O
       ([
          ("workload", S !workload);
          ("seed", I seed);
          ("measured_s", F measured);
          ("peak_rss_kb", I rss);
          ("host_ref_s", L (List.rev_map (fun x -> F x) !Host.samples));
        ]
       @ extra @ layers))
