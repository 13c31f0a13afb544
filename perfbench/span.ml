(* Wall-time spans and counts recorded around calls into the flow's
   layers, from outside the library. Off by default: [time] is then a
   plain call. The traced run switches it on, resets it before each op and
   reads the per-op totals back with [take]. Spans nest; time spent at
   depth 0 is the op's top-level layer time, the numerator of
   [trace.coverage]. Single-domain: the replay that records spans runs
   sequentially on the main domain. *)

let on = ref false
let totals : (string, float) Hashtbl.t = Hashtbl.create 64
let depth = ref 0
let top = ref 0.0

let add name v =
  let prev = Option.value ~default:0.0 (Hashtbl.find_opt totals name) in
  Hashtbl.replace totals name (prev +. v)

let count name n = if !on then add name (float_of_int n)

let time name f =
  if not !on then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    incr depth;
    Fun.protect
      ~finally:(fun () ->
        decr depth;
        let dt = Unix.gettimeofday () -. t0 in
        add name dt;
        if !depth = 0 then top := !top +. dt)
      f
  end

(* totals since the last [take], and the depth-0 share of them *)
let take () =
  let all = Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals [] in
  let top_level = !top in
  Hashtbl.reset totals;
  top := 0.0;
  (List.sort compare all, top_level)
