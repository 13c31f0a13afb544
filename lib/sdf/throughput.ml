type result =
  | Throughput of {
      throughput : Rational.t;
      transient_time : int;
      period_time : int;
      period_iterations : int;
    }
  | Deadlocked of { time : int; iterations : int }
  | No_recurrence
  | Budget_exhausted of { steps : int }

type method_ = [ `State_space | `Mcm | `Auto ]

(* One reusable visited-state table per domain: the table grows to the
   transient length (tens of thousands of entries on the paper's
   graphs), and reallocating + regrowing it per analysis is a large
   share of the sweep's major-heap churn. [Hashtbl.clear] keeps the
   grown bucket array for the next analysis on this domain. *)
let seen_scratch : (string, int * int) Hashtbl.t Exec.Scratch.slot =
  Exec.Scratch.slot (fun () -> Hashtbl.create 1024)

let analyse_state_space ~options ~max_steps g =
  let eng = Execution.create ~options g in
  Exec.Scratch.borrow seen_scratch ~reset:Hashtbl.clear @@ fun seen ->
  let rec loop steps =
    if steps > max_steps then Budget_exhausted { steps = max_steps }
    else begin
      (* cooperative cancellation: a surrounding deadline (pool task
         timeout, DSE sweep budget) must be able to interrupt a long
         transient without waiting for max_steps *)
      if steps land 1023 = 0 then Exec.Budget.check ();
      let key = Execution.state_key eng in
      match Hashtbl.find_opt seen key with
      | Some (t0, iterations0) ->
          let period_time = Execution.now eng - t0 in
          let period_iterations =
            Execution.iterations_completed eng - iterations0
          in
          if period_time <= 0 || period_iterations <= 0 then No_recurrence
          else
            Throughput
              {
                throughput = Rational.make period_iterations period_time;
                transient_time = t0;
                period_time;
                period_iterations;
              }
      | None ->
          Hashtbl.add seen key
            (Execution.now eng, Execution.iterations_completed eng);
          (match Execution.advance eng with
          | Execution.Advanced -> loop (steps + 1)
          | Execution.Deadlock ->
              Deadlocked
                {
                  time = Execution.now eng;
                  iterations = Execution.iterations_completed eng;
                }
          | Execution.Budget_exhausted -> Budget_exhausted { steps })
    end
  in
  loop 0

(* --- symbolic (max,+)/MCM path ----------------------------------------------- *)

let mcm_runs = Atomic.make 0
let mcm_fallbacks = Atomic.make 0

type mcm_stats = { runs : int; fallbacks : int }

let mcm_stats () =
  { runs = Atomic.get mcm_runs; fallbacks = Atomic.get mcm_fallbacks }

(* The symbolic result mirrors what the state-space recurrence would report:
   the throughput rational is identical (the self-timed execution of the
   expansion is eventually periodic at exactly 1/MCM); the period fields are
   the critical cycle's sums (already a valid period), and the transient is
   not modelled, so it is 0. *)
let result_of_mcm = function
  | Mcm.Deadlock _ -> Deadlocked { time = 0; iterations = 0 }
  | Mcm.Acyclic -> No_recurrence
  | Mcm.Ratio { lambda; critical } ->
      if Rational.sign lambda <= 0 then
        (* all cycles are zero-time: the engine spins at t = 0 and closes a
           zero-length period, which it reports as No_recurrence too *)
        No_recurrence
      else
        Throughput
          {
            throughput =
              Rational.make critical.Mcm.cycle_tokens critical.Mcm.cycle_time;
            transient_time = 0;
            period_time = critical.Mcm.cycle_time;
            period_iterations = critical.Mcm.cycle_tokens;
          }

(* [None] = infeasible at run time (certificate failure or exact-arithmetic
   overflow); the caller falls back to the state space. *)
let try_mcm ~options g =
  match Hsdf.expand_csr ~options g with
  | Error _ -> None
  | Ok c -> (
      match Mcm.max_cycle_ratio_csr c with
      | outcome -> Some (result_of_mcm outcome)
      | exception (Mcm.Diverged | Rational.Overflow) -> None)

let run_mcm_or_fallback ~options ~max_steps g =
  match try_mcm ~options g with
  | Some r ->
      Atomic.incr mcm_runs;
      r
  | None ->
      Atomic.incr mcm_fallbacks;
      analyse_state_space ~options ~max_steps g

let analyse ?(options = Execution.default_options) ?(max_steps = 200_000)
    ?(method_ = `State_space) g =
  match method_ with
  | `State_space -> analyse_state_space ~options ~max_steps g
  | `Mcm | `Auto -> (
      match Hsdf.supported ~options g with
      | Ok () -> run_mcm_or_fallback ~options ~max_steps g
      | Error _ ->
          Atomic.incr mcm_fallbacks;
          analyse_state_space ~options ~max_steps g)

(* --- memoized front-end ------------------------------------------------------ *)

(* One process-wide cache: design points sharing sub-analyses may be
   evaluated on different pool domains, in different [Dse.explore]
   calls, or interleaved with conformance runs — a shared table is what
   makes the sharing pay. Bounded, so a long mapping-as-a-service
   process cannot grow it without limit. *)
let cache : result Memo.t = Memo.create ~capacity:4096 ()
let memo_stats () = Memo.stats cache
let memo_clear () = Memo.clear cache

let analyse_memo ?(options = Execution.default_options) ?(max_steps = 200_000)
    ?(method_ = `State_space) g =
  (* a cold analysis polls the ambient budget at step 0; a cache hit
     must poll at least as often, or a warm cache would make budgeted
     tasks uninterruptible *)
  Exec.Budget.check ();
  (* the method resolves *before* keying: [`Auto]/[`Mcm] become [`Mcm] only
     when the cheap expansion precheck admits the graph+options, so the key
     names the analysis that actually runs and hits stay hit without ever
     building an expansion *)
  let resolved =
    match method_ with
    | `State_space -> `State_space
    | `Mcm | `Auto -> (
        match Hsdf.supported ~options g with
        | Ok () -> `Mcm
        | Error _ ->
            Atomic.incr mcm_fallbacks;
            `State_space)
  in
  match Execution.options_key options with
  | None ->
      (* closures in the options: unkeyable, run it for real (the
         precheck rejects closures, so this is always state space) *)
      analyse_state_space ~options ~max_steps g
  | Some opts_key -> (
      match resolved with
      | `State_space ->
          let key =
            String.concat "\x00"
              [ Graph.structural_key g; opts_key; string_of_int max_steps ]
          in
          Memo.find_or_add cache key (fun () ->
              analyse_state_space ~options ~max_steps g)
      | `Mcm ->
          (* max_steps stays in the key: a rare run-time fallback still
             depends on it, and the key must cover every input *)
          let key =
            String.concat "\x00"
              [
                Graph.structural_key g;
                opts_key;
                string_of_int max_steps;
                "mcm";
              ]
          in
          Memo.find_or_add cache key (fun () ->
              run_mcm_or_fallback ~options ~max_steps g))

let to_rational_opt = function
  | Throughput { throughput; _ } -> Some throughput
  | Deadlocked _ -> Some Rational.zero
  | No_recurrence | Budget_exhausted _ -> None

let to_rational = function
  | No_recurrence ->
      invalid_arg "Throughput.to_rational: analysis did not converge"
  | Budget_exhausted { steps } ->
      invalid_arg
        (Printf.sprintf
           "Throughput.to_rational: step budget exhausted after %d steps" steps)
  | r -> Option.get (to_rational_opt r)

let actor_throughput g result a =
  let q = Repetition.vector_exn g in
  Rational.mul (to_rational result) (Rational.of_int q.(a))

let pp_result ppf = function
  | Throughput { throughput; transient_time; period_time; period_iterations } ->
      Format.fprintf ppf
        "throughput %a it/cycle (transient %d, period %d cycles / %d it)"
        Rational.pp throughput transient_time period_time period_iterations
  | Deadlocked { time; iterations } ->
      Format.fprintf ppf "deadlock at t=%d after %d iterations" time iterations
  | No_recurrence -> Format.fprintf ppf "no recurrence found"
  | Budget_exhausted { steps } ->
      Format.fprintf ppf "step budget exhausted (%d steps, no recurrence yet)"
        steps
