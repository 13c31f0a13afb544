let space_suffix = "__space"

let lower_bound (c : Graph.channel) =
  let p = c.production_rate and q = c.consumption_rate in
  let g = Rational.gcd_int p q in
  Stdlib.max c.initial_tokens (p + q - g + (c.initial_tokens mod g))

let add_capacity g channel_id ~capacity =
  let c = Graph.channel g channel_id in
  if capacity < c.initial_tokens then
    invalid_arg
      (Printf.sprintf
         "Buffers.add_capacity: capacity %d below %d initial tokens of %S"
         capacity c.initial_tokens c.channel_name);
  let g, _ =
    Graph.add_channel g
      ~name:(c.channel_name ^ space_suffix)
      ~source:c.target ~production_rate:c.consumption_rate ~target:c.source
      ~consumption_rate:c.production_rate
      ~initial_tokens:(capacity - c.initial_tokens)
      ~token_size:0 ()
  in
  g

let is_space_channel (c : Graph.channel) =
  let n = String.length space_suffix in
  String.length c.channel_name >= n
  && String.sub c.channel_name
       (String.length c.channel_name - n)
       n
     = space_suffix

let with_capacities g f =
  List.fold_left
    (fun acc (c : Graph.channel) ->
      if is_space_channel c then acc
      else
        match f c with
        | None -> acc
        | Some capacity -> add_capacity acc c.channel_id ~capacity)
    g (Graph.channels g)

type sizing = {
  capacities : int array;
  achieved : Throughput.result;
  evaluations : int;
}

type trade_off_point = {
  total_tokens : int;
  point_capacities : int array;
  point_throughput : Rational.t;
}

(* Shared machinery of the sizing search and the trade-off sweep: build the
   bounded graph for the current capacities, analyse it, and find the most
   blocking bounded channel. *)
let bounded_channels ?bounded g =
  let bounded =
    match bounded with
    | Some f -> f
    | None -> fun (c : Graph.channel) -> not (Graph.is_self_loop c)
  in
  (bounded, Array.of_list (Graph.channels g))

let build_bounded g original_channels bounded capacities =
  let owner = ref [] in
  let next = ref (Array.length original_channels) in
  let g' =
    Array.to_list original_channels
    |> List.fold_left
         (fun acc (c : Graph.channel) ->
           if bounded c then begin
             owner := (!next, c.channel_id) :: !owner;
             incr next;
             add_capacity acc c.channel_id ~capacity:capacities.(c.channel_id)
           end
           else acc)
         g
  in
  (g', !owner)

let most_blocking ~options g' owners =
  let eng = Execution.create ~options g' in
  let steps = ref 0 in
  let continue = ref true in
  while !continue && !steps < 2_000 do
    (match Execution.advance eng with
    | Execution.Advanced -> ()
    | Execution.Deadlock | Execution.Budget_exhausted -> continue := false);
    incr steps
  done;
  let blocked = Execution.blocked_on eng in
  List.fold_left
    (fun best (space_id, orig_id) ->
      match best with
      | None -> Some (orig_id, blocked.(space_id))
      | Some (_, count) when blocked.(space_id) > count ->
          Some (orig_id, blocked.(space_id))
      | Some _ -> best)
    None owners

let trade_off ?(options = Execution.default_options) ?(max_rounds = 64)
    ?(analysis = `Auto) ?bounded g =
  let analyse = Throughput.analyse_memo ~method_:analysis in
  let bounded, original_channels = bounded_channels ?bounded g in
  let capacities = Array.make (Array.length original_channels) 0 in
  Array.iteri
    (fun i c -> if bounded c then capacities.(i) <- lower_bound c)
    original_channels;
  let total () =
    Array.to_list original_channels
    |> List.fold_left
         (fun acc (c : Graph.channel) ->
           if bounded c then acc + capacities.(c.channel_id) else acc)
         0
  in
  let rec sweep round best points =
    if round > max_rounds then List.rev points
    else begin
      let g', owners = build_bounded g original_channels bounded capacities in
      let result = analyse ~options g' in
      let points, best =
        match result with
        | Throughput.Throughput { throughput; _ }
          when Rational.compare throughput best > 0 ->
            ( {
                total_tokens = total ();
                point_capacities = Array.copy capacities;
                point_throughput = throughput;
              }
              :: points,
              throughput )
        | _ -> (points, best)
      in
      match most_blocking ~options g' owners with
      | Some (orig_id, count) when count > 0 ->
          let c = original_channels.(orig_id) in
          let step =
            Stdlib.max 1 (Rational.gcd_int c.production_rate c.consumption_rate)
          in
          capacities.(orig_id) <- capacities.(orig_id) + step;
          sweep (round + 1) best points
      | Some _ | None -> List.rev points
    end
  in
  sweep 0 Rational.zero []

let size_for_throughput ?(options = Execution.default_options)
    ?(max_rounds = 64) ?(analysis = `Auto) ?bounded g ~target =
  let analyse = Throughput.analyse_memo ~method_:analysis in
  let bounded, original_channels = bounded_channels ?bounded g in
  let capacities = Array.make (Array.length original_channels) 0 in
  Array.iteri
    (fun i c -> if bounded c then capacities.(i) <- lower_bound c)
    original_channels;
  let evaluations = ref 0 in
  let rec search round =
    if round > max_rounds then None
    else begin
      let g', owners = build_bounded g original_channels bounded capacities in
      incr evaluations;
      let result = analyse ~options g' in
      let good =
        match result with
        | Throughput.Throughput { throughput; _ } ->
            Rational.compare throughput target >= 0
        | Throughput.Deadlocked _ | Throughput.No_recurrence
        | Throughput.Budget_exhausted _ ->
            false
      in
      if good then
        Some
          {
            capacities = Array.copy capacities;
            achieved = result;
            evaluations = !evaluations;
          }
      else begin
        (* grow the channel whose space tokens starve the most firings *)
        match most_blocking ~options g' owners with
        | None -> None (* nothing bounded: the graph itself misses the target *)
        | Some (_, 0) -> None (* capacity is not the bottleneck *)
        | Some (orig_id, _) ->
            let c = original_channels.(orig_id) in
            let step =
              Stdlib.max 1
                (Rational.gcd_int c.production_rate c.consumption_rate)
            in
            capacities.(orig_id) <- capacities.(orig_id) + step;
            search (round + 1)
      end
    end
  in
  search 0
