type instance = { original : Graph.actor_id; index : int }

type t = {
  graph : Graph.t;
  instances : instance array;
  first_instance : int array;
  repetition : int array;
}

type error =
  | Inconsistent of string
  | Too_large of { instances : int; edges : int; limit : int }
  | Unsupported of string

let default_max_instances = 100_000

let pp_error ppf = function
  | Inconsistent msg -> Format.fprintf ppf "not consistent: %s" msg
  | Too_large { instances; edges; limit } ->
      Format.fprintf ppf
        "expansion too large (%d instances, %d dependency edges, limit %d)"
        instances edges limit
  | Unsupported msg -> Format.fprintf ppf "unsupported: %s" msg

(* Mathematical floor division, also exact for negative numerators:
   token indices before the initial tokens fold into earlier iterations. *)
let floor_div a b = if a >= 0 then a / b else -((-a + b - 1) / b)

(* Saturating size arithmetic: anything past [cap] collapses to [cap + 1],
   so the budget test cannot overflow no matter the rates. *)
let cap_add cap acc v =
  if v < 0 || v > cap || acc > cap - v then cap + 1 else acc + v

let cap_mul cap a b = if b > 0 && a > cap / b then cap + 1 else a * b

exception Reject of error

(* Static orders are admissible only when each pass through the order is
   exactly one iteration's worth of firings of its actors — which is what
   {!Mapping.Order.micro_orders} produces, and what lets instance [i] of an
   actor stand for occurrence [i] of every pass. *)
let validate_resources (options : Execution.options) n q =
  let resource_of = Array.make n (-1) in
  let occurrences = Array.make n 0 in
  try
    List.iteri
      (fun ri (r : Execution.resource_binding) ->
        Array.iter
          (fun a ->
            if a < 0 || a >= n then
              raise
                (Reject
                   (Unsupported
                      (Printf.sprintf
                         "static order of %S names unknown actor id %d"
                         r.Execution.resource_name a)));
            if resource_of.(a) >= 0 && resource_of.(a) <> ri then
              raise
                (Reject
                   (Unsupported
                      (Printf.sprintf "actor id %d is bound to two resources"
                         a)));
            resource_of.(a) <- ri;
            occurrences.(a) <- occurrences.(a) + 1)
          r.Execution.static_order)
      options.Execution.resources;
    Array.iteri
      (fun a k ->
        if k > 0 && k <> q.(a) then
          raise
            (Reject
               (Unsupported
                  (Printf.sprintf
                     "static order fires actor id %d %d times per pass, its \
                      repetition count is %d"
                     a k q.(a)))))
      occurrences;
    Ok (Array.map (fun r -> r >= 0) resource_of)
  with Reject e -> Error e

let precheck ?(options = Execution.default_options)
    ?(max_instances = default_max_instances) g =
  if max_instances < 1 then invalid_arg "Hsdf: max_instances must be >= 1";
  let n = Graph.actor_count g in
  if n = 0 then Error (Unsupported "empty graph")
  else if Option.is_some options.Execution.firing_time then
    Error (Unsupported "firing-time override cannot be encoded structurally")
  else if Option.is_some options.Execution.on_event then
    Error (Unsupported "trace hooks need a real execution")
  else
    match options.Execution.auto_concurrency with
    | Some k when k < 1 ->
        Error (Unsupported "auto-concurrency degree must be >= 1")
    | auto -> (
        match Repetition.compute g with
        | Repetition.Inconsistent c ->
            Error
              (Inconsistent
                 (Printf.sprintf
                    "balance equation of channel %S has no solution"
                    c.Graph.channel_name))
        | Repetition.Disconnected_actor a ->
            Error
              (Inconsistent
                 (Printf.sprintf "actor %S has no channels" a.Graph.actor_name))
        | Repetition.Consistent q -> (
            match validate_resources options n q with
            | Error e -> Error e
            | Ok bound ->
                let icap = max_instances in
                let ecap =
                  if max_instances > max_int / 16 then max_int / 2
                  else 8 * max_instances
                in
                let instances =
                  Array.fold_left (fun acc qa -> cap_add icap acc qa) 0 q
                in
                let edges =
                  List.fold_left
                    (fun acc (c : Graph.channel) ->
                      cap_add ecap acc
                        (cap_mul ecap q.(c.target) c.consumption_rate))
                    0 (Graph.channels g)
                in
                let edges =
                  match auto with
                  | None -> edges
                  | Some _ ->
                      snd
                        (Array.fold_left
                           (fun (a, acc) qa ->
                             ( a + 1,
                               if bound.(a) then acc else cap_add ecap acc qa
                             ))
                           (0, edges) q)
                in
                let edges =
                  List.fold_left
                    (fun acc (r : Execution.resource_binding) ->
                      cap_add ecap acc (Array.length r.static_order))
                    edges options.Execution.resources
                in
                if instances > icap || edges > ecap then
                  Error (Too_large { instances; edges; limit = max_instances })
                else Ok (q, bound, instances, edges)))

let supported ?options ?max_instances g =
  match precheck ?options ?max_instances g with
  | Ok _ -> Ok ()
  | Error e -> Error e

(* The raw dependency edges of an expansion, in discovery order: the
   token-dependency edges channel by channel (the auto-concurrency
   self-loops count as channels after the graph's own), then each
   resource's static-order ring. [label] names an edge's origin: its
   channel index for a token edge, [-1 - ri] for an edge of the ring of
   resource [ri]. *)
type raw = {
  first : int array;
  time : int array;  (** execution time per instance *)
  src : int array;
  dst : int array;
  tokens : int array;
  label : int array;
  mutable m : int;
  so_start : int array;
      (** index of each resource's first edge, and [m] after the last *)
}

let push b ~src ~dst ~tokens ~label =
  let e = b.m in
  b.src.(e) <- src;
  b.dst.(e) <- dst;
  b.tokens.(e) <- tokens;
  b.label.(e) <- label;
  b.m <- e + 1

(* Token-dependency edges of one channel: consumer instance [i] of [t]
   consumes tokens [i*r .. i*r+r-1]; token [K] is emitted by producer firing
   [floor((K - d) / p)], folded onto an instance of the same iteration with
   the iteration distance as initial tokens on the edge. *)
let channel_edges b q ~label ~s ~t ~p ~r ~d =
  let qs = q.(s) and fs = b.first.(s) and ft = b.first.(t) in
  for i = 0 to q.(t) - 1 do
    for l = 0 to r - 1 do
      let j_raw = floor_div ((i * r) + l - d) p in
      let j0 =
        let m = j_raw mod qs in
        if m < 0 then m + qs else m
      in
      push b ~src:(fs + j0) ~dst:(ft + i) ~tokens:((j0 - j_raw) / qs) ~label
    done
  done

let build (options : Execution.options) g (q, bound, total, edges) =
  let resources = options.Execution.resources in
  let n = Graph.actor_count g in
  let first = Array.make n 0 and time = Array.make total 0 in
  let off = ref 0 in
  for a = 0 to n - 1 do
    first.(a) <- !off;
    Array.fill time !off q.(a) (Graph.actor g a).Graph.execution_time;
    off := !off + q.(a)
  done;
  let so_start = Array.make (List.length resources + 1) 0 in
  let b =
    {
      first;
      time;
      src = Array.make edges 0;
      dst = Array.make edges 0;
      tokens = Array.make edges 0;
      label = Array.make edges 0;
      m = 0;
      so_start;
    }
  in
  List.iter
    (fun (c : Graph.channel) ->
      channel_edges b q ~label:c.Graph.channel_id ~s:c.Graph.source
        ~t:c.Graph.target ~p:c.Graph.production_rate ~r:c.Graph.consumption_rate
        ~d:c.Graph.initial_tokens)
    (Graph.channels g);
  (* The engine's auto-concurrency bound, structurally: an additional
     k-token self-loop on every actor not serialized by a resource. Unlike
     {!Transform.constrain_auto_concurrency} this must not skip actors that
     already have self-loops — the engine applies the bound on top of any
     data self-loop, and so does the extra channel. *)
  (match options.Execution.auto_concurrency with
  | None -> ()
  | Some k ->
      let label = ref (Graph.channel_count g) in
      for a = 0 to n - 1 do
        if not bound.(a) then begin
          channel_edges b q ~label:!label ~s:a ~t:a ~p:1 ~r:1 ~d:k;
          incr label
        end
      done);
  (* Static orders: occurrence [k] of a pass is one HSDF instance; a
     zero-token chain serializes the pass in order and a one-token edge
     closes the ring, exactly the engine's single-firing-in-flight cyclic
     scheduler. *)
  let next = Array.make n 0 in
  List.iteri
    (fun ri (r : Execution.resource_binding) ->
      let o = r.Execution.static_order in
      let len = Array.length o in
      so_start.(ri) <- b.m;
      if len > 0 then begin
        Array.fill next 0 n 0;
        let ids =
          Array.map
            (fun a ->
              let i = next.(a) in
              next.(a) <- i + 1;
              first.(a) + i)
            o
        in
        for k = 0 to len - 2 do
          push b ~src:ids.(k) ~dst:ids.(k + 1) ~tokens:0 ~label:(-1 - ri)
        done;
        push b ~src:ids.(len - 1) ~dst:ids.(0) ~tokens:1 ~label:(-1 - ri)
      end)
    resources;
  so_start.(List.length resources) <- b.m;
  b

(* Parallel edges between the same two instances collapse to the fewest
   initial tokens — successive completions of one instance are monotone in
   time, so the tightest edge dominates. *)
let collapse b =
  Mcm.csr_of_edges ~time:b.time ~src:b.src ~dst:b.dst ~tokens:b.tokens b.m

let expand_csr ?(options = Execution.default_options)
    ?(max_instances = default_max_instances) g =
  match precheck ~options ~max_instances g with
  | Error e -> Error e
  | Ok sizes -> Ok (collapse (build options g sizes))

let expand ?(options = Execution.default_options)
    ?(max_instances = default_max_instances) g =
  match precheck ~options ~max_instances g with
  | Error e -> Error e
  | Ok ((q, bound, total, _) as sizes) ->
      let n = Graph.actor_count g in
      let b = build options g sizes in
      (* only for its marks: later parallel edges now hold -1 tokens *)
      ignore (collapse b : Mcm.csr);
      (* the auto-concurrency channels' names, uniquified against the
         graph and each other *)
      let channel_names =
        match options.Execution.auto_concurrency with
        | None -> Graph.channels g
        | Some _ ->
            List.fold_left
              (fun acc (a : Graph.actor) ->
                if bound.(a.actor_id) then acc
                else
                  fst
                    (Graph.add_channel acc
                       ~name:
                         (Transform.fresh_channel_name acc
                            (a.actor_name ^ "__ac"))
                       ~source:a.actor_id ~production_rate:1
                       ~target:a.actor_id ~consumption_rate:1 ()))
              g (Graph.actors g)
            |> Graph.channels
      in
      let channel_names =
        Array.of_list
          (List.map (fun (c : Graph.channel) -> c.Graph.channel_name)
             channel_names)
      in
      let instances = Array.make total { original = 0; index = 0 } in
      let hg = ref (Graph.empty (Graph.name g ^ "__hsdf")) in
      for a = 0 to n - 1 do
        let act = Graph.actor g a in
        for i = 0 to q.(a) - 1 do
          (* "<name>#<i>" is collision-free: instance indices hold no '#',
             so the suffix after the last '#' determines both parts *)
          let hg', id =
            Graph.add_actor !hg
              ~name:(Printf.sprintf "%s#%d" act.Graph.actor_name i)
              ~execution_time:act.Graph.execution_time
          in
          instances.(id) <- { original = a; index = i };
          hg := hg'
        done
      done;
      for e = 0 to b.m - 1 do
        if b.tokens.(e) >= 0 then begin
          let src = b.src.(e) and dst = b.dst.(e) and l = b.label.(e) in
          let name =
            if l >= 0 then
              Printf.sprintf "%s#%d_%d" channel_names.(l)
                instances.(src).index instances.(dst).index
            else
              let ri = -1 - l in
              let k = e - b.so_start.(ri) in
              if k = b.so_start.(ri + 1) - b.so_start.(ri) - 1 then
                Printf.sprintf "__so__%d__ring" ri
              else Printf.sprintf "__so__%d__%d" ri k
          in
          hg :=
            fst
              (Graph.add_channel !hg ~name ~source:src ~production_rate:1
                 ~target:dst ~consumption_rate:1 ~initial_tokens:b.tokens.(e)
                 ~token_size:0 ())
        end
      done;
      Ok { graph = !hg; instances; first_instance = b.first; repetition = q }

let instance_label t id = (Graph.actor t.graph id).Graph.actor_name
