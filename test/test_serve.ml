(* The mapping-as-a-service daemon: the JSON codec it speaks, the
   hand-rolled HTTP layer, the crash-safe journal's replay semantics, and
   the server's admission/backpressure/drain/idempotency behaviour — the
   last over a real listening socket with an injected executor, so jobs
   block, fail or finish exactly when the test says so. *)

module Json = Jsonkit.Json
module Http = Serve.Http
module Job = Serve.Job
module Journal = Serve.Journal
module Server = Serve.Server

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let tmp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "mamps_serve_%d_%s" (Unix.getpid ()) name)

(* --- json ------------------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("name", Json.String "a\"b\\c\nd");
        ("xs", Json.List [ Json.Int 1; Json.Int (-2); Json.Null ]);
        ("ok", Json.Bool true);
        ("r", Json.Float 1.5);
      ]
  in
  match Json.of_string (Json.to_string v) with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok v' ->
      check bool "roundtrip preserves the value" true (v = v');
      check (Alcotest.option string) "member + accessor"
        (Some "a\"b\\c\nd")
        (Option.bind (Json.member "name" v') Json.to_string_opt)

let test_json_errors () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ "{"; "tru"; "[1,]"; "\"unterminated"; "{}garbage"; "" ]

(* --- http ------------------------------------------------------------------- *)

(* feed raw bytes through a socketpair, exactly as a client socket would *)
let feed ?max_header_bytes ?max_body_bytes raw =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ a; b ])
    (fun () ->
      let rec send off =
        if off < String.length raw then
          send (off + Unix.write_substring a raw off (String.length raw - off))
      in
      send 0;
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      Http.read_request ?max_header_bytes ?max_body_bytes b)

let test_http_parse () =
  match
    feed
      "POST /jobs?mode=dse&name=a%20b+c HTTP/1.1\r\nHost: x\r\n\
       Content-Length: 4\r\nX-Thing: v\r\n\r\nbody"
  with
  | Error e -> Alcotest.failf "parse failed: %s" (Http.error_to_string e)
  | Ok rq ->
      check string "method" "POST" rq.Http.rq_method;
      check string "path split from query" "/jobs" rq.Http.rq_path;
      check (Alcotest.option string) "query param" (Some "dse")
        (Http.query_param rq "mode");
      check (Alcotest.option string) "percent and plus decode" (Some "a b c")
        (Http.query_param rq "name");
      check (Alcotest.option string) "case-insensitive header" (Some "v")
        (Http.header rq "x-thing");
      check string "body by content-length" "body" rq.Http.rq_body

let test_http_errors () =
  (match feed "NOT A REQUEST\r\n\r\n" with
  | Error (Http.Malformed _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "garbage request line must be Malformed");
  (match feed "GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n" with
  | Error (Http.Malformed _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "bad content-length must be Malformed");
  (match
     feed ~max_header_bytes:32
       "GET /x HTTP/1.1\r\nX-Long: aaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n\r\n"
   with
  | Error (Http.Too_large _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "oversized header must be Too_large");
  (match
     feed ~max_body_bytes:2 "POST /x HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc"
   with
  | Error (Http.Too_large _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "oversized body must be Too_large");
  match feed "GET /x HTTP/1.1\r\nTrunc" with
  | Error Http.Closed -> ()
  | Ok _ | Error _ -> Alcotest.fail "EOF mid-header must be Closed"

(* --- jobs ------------------------------------------------------------------- *)

let graph_body ?(name = "t") ?(wcet = 10) () =
  Printf.sprintf
    "<sdfgraph name=%S>\n\
    \  <actor name=\"a\" executionTime=\"%d\"/>\n\
    \  <actor name=\"b\" executionTime=\"7\"/>\n\
    \  <channel name=\"f\" src=\"a\" dst=\"b\" prodRate=\"1\" consRate=\"1\" \
     initialTokens=\"0\" tokenSize=\"4\"/>\n\
    \  <channel name=\"r\" src=\"b\" dst=\"a\" prodRate=\"1\" consRate=\"1\" \
     initialTokens=\"2\" tokenSize=\"4\"/>\n\
     </sdfgraph>"
    name wcet

let parse_spec ?(query = []) ?(default_timeout = Some 30.0) body =
  match Job.parse ~body ~query ~default_timeout with
  | Ok s -> s
  | Error e -> Alcotest.failf "spec did not parse: %s" e

let test_job_identity () =
  let s1 = parse_spec (graph_body ()) in
  (* same structure, different serialization: same job *)
  let s2 = parse_spec (graph_body () ^ "\n\n") in
  check string "structural identity survives reserialization" (Job.id s1)
    (Job.id s2);
  let s3 = parse_spec ~query:[ ("mode", "dse") ] (graph_body ()) in
  check bool "options join the key" true (Job.id s1 <> Job.id s3);
  let s4 = parse_spec (graph_body ~wcet:11 ()) in
  check bool "different graph, different job" true (Job.id s1 <> Job.id s4)

let test_job_spec_json_roundtrip () =
  let s = parse_spec ~query:[ ("mode", "dse"); ("tiles", "3") ] (graph_body ()) in
  match Job.of_json (Job.to_json s) with
  | Error e -> Alcotest.failf "spec json roundtrip: %s" e
  | Ok s' -> check bool "spec roundtrips through json" true (s = s')

(* a served DSE job: the sweep, its front and its degradation document *)
let test_job_execute_dse () =
  let run query =
    Job.execute
      (parse_spec ~query:([ ("mode", "dse"); ("tiles", "2") ] @ query)
         (graph_body ()))
  in
  let point ic tiles slices =
    Json.Obj
      [
        ("interconnect", Json.String ic);
        ("tiles", Json.Int tiles);
        ("guarantee", Json.Obj [ ("num", Json.Int 1); ("den", Json.Int 17) ]);
        ("slices", Json.Int slices);
      ]
  in
  let doc points pareto degradation =
    Json.to_string
      (Json.Obj
         [
           ("mode", Json.String "dse");
           ("graph", Json.String "t");
           ("points", Json.List points);
           ("pareto", Json.List pareto);
           ("failures", Json.Int 0);
           ("degradation", degradation);
         ])
  in
  let completed name expected outcome =
    match outcome with
    | Job.Completed d -> check string name expected (Json.to_string d)
    | o -> Alcotest.failf "%s: expected completed, got %s" name
             (Job.outcome_status o)
  in
  let fsl1 = point "fsl" 1 1760 in
  completed "fsl sweep"
    (doc [ fsl1; point "fsl" 2 3310 ] [ fsl1 ] Json.Null)
    (run []);
  let noc1 = point "noc" 1 2264 in
  completed "noc sweep"
    (doc [ noc1; point "noc" 2 4318 ] [ noc1 ] Json.Null)
    (run [ ("interconnect", "noc") ]);
  match run [ ("timeout", "0.000001") ] with
  | Job.Timed_out (Some d) ->
      check string "deadline before the first point"
        (doc [] []
           (Json.Obj
              [
                ("reason", Json.String "deadline exceeded");
                ("evaluated", Json.Int 0);
                ("skipped", Json.Int 2);
              ]))
        (Json.to_string d)
  | o -> Alcotest.failf "expected a partial timeout, got %s" (Job.outcome_status o)

(* --- journal ---------------------------------------------------------------- *)

let with_journal name f =
  let path = tmp_path name in
  (try Sys.remove path with Sys_error _ -> ());
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let open_exn path =
  match Journal.open_ path with
  | Ok v -> v
  | Error e -> Alcotest.failf "journal open failed: %s" e

let test_journal_replay () =
  with_journal "replay.log" (fun path ->
      let spec = parse_spec (graph_body ()) in
      let id = Job.id spec in
      let j, r0 = open_exn path in
      check int "fresh journal is empty" 0 (List.length r0.Journal.rp_jobs);
      Journal.append j (Journal.Submitted (id, spec));
      Journal.close j;
      (* submitted, never started: replay re-enqueues *)
      let j, r1 = open_exn path in
      (match r1.Journal.rp_jobs with
      | [ (id', spec', Journal.Replay_queued) ] ->
          check string "id survives" id id';
          check bool "spec survives" true (spec = spec')
      | _ -> Alcotest.fail "expected one queued job");
      Journal.append j (Journal.Started id);
      Journal.close j;
      (* started, never finished: the crash ate it *)
      let j, r2 = open_exn path in
      (match r2.Journal.rp_jobs with
      | [ (_, _, Journal.Replay_interrupted) ] -> ()
      | _ -> Alcotest.fail "expected one interrupted job");
      (* the interruption itself was journaled by replay: a re-open
         without new events still reports it *)
      Journal.close j;
      let j, r2b = open_exn path in
      (match r2b.Journal.rp_jobs with
      | [ (_, _, Journal.Replay_interrupted) ] -> ()
      | _ -> Alcotest.fail "interruption must survive a second replay");
      Journal.append j (Journal.Requeued id);
      Journal.append j (Journal.Started id);
      Journal.append j
        (Journal.Finished (id, Job.Completed (Json.Obj [ ("x", Json.Int 1) ])));
      Journal.close j;
      let j, r3 = open_exn path in
      (match r3.Journal.rp_jobs with
      | [ (_, _, Journal.Replay_done (Job.Completed doc)) ] ->
          check bool "outcome payload survives" true
            (doc = Json.Obj [ ("x", Json.Int 1) ])
      | _ -> Alcotest.fail "expected one finished job");
      Journal.close j)

let test_journal_torn_line () =
  with_journal "torn.log" (fun path ->
      let spec = parse_spec (graph_body ()) in
      let id = Job.id spec in
      let j, _ = open_exn path in
      Journal.append j (Journal.Submitted (id, spec));
      Journal.close j;
      (* simulate a crash mid-append: half a record, no newline *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "done \"abc";
      close_out oc;
      let j, r = open_exn path in
      check int "torn trailing line counted" 1 r.Journal.rp_torn_lines;
      (match r.Journal.rp_jobs with
      | [ (_, _, Journal.Replay_queued) ] -> ()
      | _ -> Alcotest.fail "torn line must not corrupt earlier records");
      Journal.close j;
      (* compaction rewrote the file: the torn tail is gone for good *)
      let j, r2 = open_exn path in
      check int "compaction dropped the torn line" 0 r2.Journal.rp_torn_lines;
      Journal.close j)

let test_journal_foreign_file () =
  with_journal "foreign.log" (fun path ->
      let oc = open_out path in
      output_string oc "not a journal\n";
      close_out oc;
      match Journal.open_ path with
      | Error _ -> ()
      | Ok (j, _) ->
          Journal.close j;
          Alcotest.fail "foreign file must be rejected, not overwritten")

(* --- server ----------------------------------------------------------------- *)

(* minimal client: one request, Connection: close, read to EOF *)
let request ~port ~meth ~path ?(body = "") () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let raw =
        Printf.sprintf
          "%s %s HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\
           Connection: close\r\n\r\n%s"
          meth path (String.length body) body
      in
      let rec send off =
        if off < String.length raw then
          send (off + Unix.write_substring fd raw off (String.length raw - off))
      in
      send 0;
      let buf = Buffer.create 512 in
      let chunk = Bytes.create 2048 in
      let rec recv () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            recv ()
      in
      recv ();
      let raw = Buffer.contents buf in
      let status = Scanf.sscanf raw "HTTP/1.1 %d" (fun s -> s) in
      let sep =
        let rec find i =
          if i + 3 >= String.length raw then String.length raw
          else if
            raw.[i] = '\r' && raw.[i + 1] = '\n' && raw.[i + 2] = '\r'
            && raw.[i + 3] = '\n'
          then i + 4
          else find (i + 1)
        in
        find 0
      in
      let head = String.sub raw 0 sep in
      (status, head, String.sub raw sep (String.length raw - sep)))

let counter srv name =
  Option.value ~default:0
    (List.assoc_opt name (Obs.Metrics.counters (Server.metrics srv)))

(* run a server on an ephemeral port with an injected executor; the
   callback must leave no job permanently blocked or the drain hangs *)
let with_server ?journal ?(queue = 4) ?(execute = fun _ -> Job.Completed Json.Null)
    f =
  let cfg =
    {
      Server.default_config with
      port = 0;
      workers = 1;
      queue_capacity = queue;
      journal_path = journal;
      default_timeout = None;
      execute;
    }
  in
  match Server.create cfg with
  | Error e -> Alcotest.failf "server create failed: %s" e
  | Ok srv ->
      let runner = Thread.create Server.run srv in
      Fun.protect
        ~finally:(fun () ->
          Server.drain srv;
          Thread.join runner)
        (fun () -> f srv (Server.port srv))

let until ?(tries = 200) pred =
  let rec go n =
    if pred () then ()
    else if n = 0 then Alcotest.fail "condition did not hold in time"
    else begin
      Thread.delay 0.02;
      go (n - 1)
    end
  in
  go tries

let test_server_submit_wait () =
  let doc = Json.Obj [ ("answer", Json.Int 42) ] in
  with_server
    ~execute:(fun _ -> Job.Completed doc)
    (fun _srv port ->
      let status, _, body =
        request ~port ~meth:"POST" ~path:"/jobs?wait=1"
          ~body:(graph_body ()) ()
      in
      check int "wait=1 answers 200 on completion" 200 status;
      check bool "result document embedded" true
        (contains body "\"answer\":42");
      let status, _, body = request ~port ~meth:"GET" ~path:"/jobs" () in
      check int "job list" 200 status;
      check bool "job is completed" true (contains body "completed"))

let test_server_rejects_and_routes () =
  with_server (fun _srv port ->
      let status, _, body =
        request ~port ~meth:"POST" ~path:"/jobs" ~body:"not xml" ()
      in
      check int "invalid graph rejected" 400 status;
      check bool "parse error surfaced" true (contains body "invalid graph");
      let status, _, _ = request ~port ~meth:"GET" ~path:"/jobs/deadbeef" () in
      check int "unknown job is 404" 404 status;
      let status, _, _ = request ~port ~meth:"GET" ~path:"/nope" () in
      check int "unknown route is 404" 404 status;
      let status, _, _ = request ~port ~meth:"GET" ~path:"/healthz" () in
      check int "healthz" 200 status)

let test_server_idempotent_dedup () =
  let executions = Atomic.make 0 in
  with_server
    ~execute:(fun _ ->
      Atomic.incr executions;
      Job.Completed Json.Null)
    (fun srv port ->
      let submit () =
        request ~port ~meth:"POST" ~path:"/jobs" ~body:(graph_body ()) ()
      in
      let s1, _, _ = submit () in
      check int "first submission accepted" 202 s1;
      until (fun () -> counter srv "serve.jobs.completed" = 1);
      let s2, _, _ = submit () in
      check int "retry answers from the stored outcome" 200 s2;
      check int "the job ran exactly once" 1 (Atomic.get executions);
      check int "dedup counted" 1 (counter srv "serve.jobs.deduped"))

(* Two graphs that differ only in token sizes are different jobs: the
   token size feeds the communication model, so the guarantees differ. *)
let token_size_body size =
  Printf.sprintf
    "<sdfgraph name=\"ts\">\n\
    \  <actor name=\"a0\" executionTime=\"12\"/>\n\
    \  <actor name=\"a1\" executionTime=\"24\"/>\n\
    \  <channel name=\"c0\" src=\"a0\" dst=\"a1\" prodRate=\"1\" \
     consRate=\"1\" initialTokens=\"0\" tokenSize=\"%d\"/>\n\
     </sdfgraph>"
    size

let test_server_token_size_identity () =
  let wide = parse_spec (token_size_body 8)
  and narrow = parse_spec (token_size_body 4) in
  check bool "token sizes join the job id" true (Job.id wide <> Job.id narrow);
  with_server ~execute:Job.execute (fun srv port ->
      let guarantee body =
        let status, _, answer =
          request ~port ~meth:"POST" ~path:"/jobs?wait=1" ~body ()
        in
        check int "answered on completion" 200 status;
        answer
      in
      check bool "8-byte tokens guarantee 1/36" true
        (contains (guarantee (token_size_body 8))
           "\"guarantee\":{\"num\":1,\"den\":36}");
      check bool "4-byte tokens guarantee 1/54" true
        (contains (guarantee (token_size_body 4))
           "\"guarantee\":{\"num\":1,\"den\":54}");
      check int "both graphs executed" 2 (counter srv "serve.jobs.executed"))

let test_server_overload_backpressure () =
  let release = Atomic.make false in
  let execute _ =
    while not (Atomic.get release) do
      Thread.delay 0.01
    done;
    Job.Completed Json.Null
  in
  with_server ~queue:2 ~execute (fun srv port ->
      Fun.protect
        ~finally:(fun () -> Atomic.set release true)
        (fun () ->
          (* distinct WCETs: the structural digest ignores names, so
             structurally identical graphs would dedup to one job *)
          let submit i =
            request ~port ~meth:"POST" ~path:"/jobs"
              ~body:(graph_body ~name:(Printf.sprintf "g%d" i) ~wcet:(10 + i) ())
              ()
          in
          let s1, _, _ = submit 0 in
          check int "first job admitted" 202 s1;
          (* wait until the worker holds job 0 so the queue is empty *)
          until (fun () -> counter srv "serve.jobs.executed" = 1);
          let s2, _, _ = submit 1 and s3, _, _ = submit 2 in
          check int "backlog fills the queue" 202 s2;
          check int "backlog fills the queue (2)" 202 s3;
          let s4, head, _ = submit 3 in
          check int "full queue answers 429" 429 s4;
          check bool "retry-after hint present" true
            (contains (String.lowercase_ascii head) "retry-after:");
          let ready, _, body = request ~port ~meth:"GET" ~path:"/readyz" () in
          check int "readyz flips under overload" 503 ready;
          check bool "reason is overload" true (contains body "overloaded");
          Atomic.set release true;
          until (fun () -> counter srv "serve.jobs.completed" = 3);
          let ready, _, _ = request ~port ~meth:"GET" ~path:"/readyz" () in
          check int "readyz recovers after the backlog drains" 200 ready;
          check int "the rejected job never ran" 3
            (counter srv "serve.jobs.executed")))

let test_server_drain () =
  let release = Atomic.make false in
  let execute _ =
    while not (Atomic.get release) do
      Thread.delay 0.01
    done;
    Job.Completed Json.Null
  in
  with_server ~execute (fun srv port ->
      let s1, _, _ =
        request ~port ~meth:"POST" ~path:"/jobs" ~body:(graph_body ()) ()
      in
      check int "job admitted before drain" 202 s1;
      until (fun () -> counter srv "serve.jobs.executed" = 1);
      Server.drain srv;
      check bool "draining is visible" true (Server.draining srv);
      (* the running job finishes under drain, not gets dropped *)
      Atomic.set release true;
      until (fun () -> counter srv "serve.jobs.completed" = 1))

let test_server_crash_replay () =
  let path = tmp_path "server_replay.log" in
  (try Sys.remove path with Sys_error _ -> ());
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (* [default_timeout:None] matches the test server's config, so the
         HTTP resubmission below computes the same job id *)
      let spec = parse_spec ~default_timeout:None (graph_body ()) in
      let id = Job.id spec in
      (* forge the journal a kill -9 would leave behind: submitted and
         started, never finished *)
      let j, _ = open_exn path in
      Journal.append j (Journal.Submitted (id, spec));
      Journal.append j (Journal.Started id);
      Journal.close j;
      let executions = Atomic.make 0 in
      with_server ~journal:path
        ~execute:(fun _ ->
          Atomic.incr executions;
          Job.Completed Json.Null)
        (fun srv port ->
          check int "replay reports the interruption" 1
            (counter srv "serve.jobs.interrupted");
          let status, _, body =
            request ~port ~meth:"GET" ~path:("/jobs/" ^ id) ()
          in
          check int "interrupted job is known" 200 status;
          check bool "typed interrupted status" true
            (contains body "interrupted");
          (* the idempotent retry requeues it *)
          let status, _, _ =
            request ~port ~meth:"POST" ~path:"/jobs?wait=1"
              ~body:(graph_body ()) ()
          in
          check int "resubmission completes the job" 200 status;
          check int "requeue counted" 1 (counter srv "serve.jobs.requeued");
          check int "executed exactly once after the crash" 1
            (Atomic.get executions)))

let () =
  Alcotest.run "serve"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_errors;
        ] );
      ( "http",
        [
          Alcotest.test_case "request parsing" `Quick test_http_parse;
          Alcotest.test_case "typed errors" `Quick test_http_errors;
        ] );
      ( "job",
        [
          Alcotest.test_case "structural identity" `Quick test_job_identity;
          Alcotest.test_case "spec json roundtrip" `Quick
            test_job_spec_json_roundtrip;
          Alcotest.test_case "dse execution pinned" `Quick
            test_job_execute_dse;
        ] );
      ( "journal",
        [
          Alcotest.test_case "replay state machine" `Quick test_journal_replay;
          Alcotest.test_case "torn trailing line" `Quick
            test_journal_torn_line;
          Alcotest.test_case "foreign file rejected" `Quick
            test_journal_foreign_file;
        ] );
      ( "server",
        [
          Alcotest.test_case "submit and wait" `Quick test_server_submit_wait;
          Alcotest.test_case "rejections and routes" `Quick
            test_server_rejects_and_routes;
          Alcotest.test_case "idempotent dedup" `Quick
            test_server_idempotent_dedup;
          Alcotest.test_case "token sizes are part of the job" `Quick
            test_server_token_size_identity;
          Alcotest.test_case "overload backpressure" `Quick
            test_server_overload_backpressure;
          Alcotest.test_case "graceful drain" `Quick test_server_drain;
          Alcotest.test_case "crash replay" `Quick test_server_crash_replay;
        ] );
    ]
