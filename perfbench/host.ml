(* The host's speed, sampled between ops. Other tenants of a shared host
   slow its CPUs by tens of percent for stretches of seconds to hours, and
   wall times follow. A fixed piece of work that shares no code with the
   flow is timed between ops; run.py scales the ops' wall times by how
   long that work took against its nominal time, so the timing metrics
   read as seconds on a host of constant speed.

   The work fills a [Hashtbl] with string keys and sorts a list: hashing,
   allocation, pointer chasing, polymorphic comparison and minor
   collections, as the analyses do. Of the candidates tried (README.md,
   "Host speed") its time followed the flow's most closely when the host
   was busy. *)

let entries = 10_000

let work () =
  let h = Hashtbl.create 16 in
  for i = 0 to entries - 1 do
    Hashtbl.replace h (string_of_int (i * 7919 mod 10007)) i
  done;
  let l = List.init entries (fun i -> (i * 7919) mod 10007) in
  Hashtbl.length h + List.length (List.sort compare l)

let samples = ref []
let last = ref neg_infinity

let timed () =
  let t0 = Unix.gettimeofday () in
  if Sys.opaque_identity (work ()) <> 2 * entries then
    failwith "host reference: wrong result";
  Unix.gettimeofday () -. t0

let sample () =
  samples := timed () :: !samples;
  last := Unix.gettimeofday ()

(* sample when [period] seconds have passed since the last sample *)
let every period = if Unix.gettimeofday () -. !last >= period then sample ()

let burst n =
  for _ = 1 to n do
    sample ()
  done

(* For a workload that keeps both CPUs busy: [n] samples on a second
   domain alongside [n] on this one, the i-th of each at the same time,
   so that each sample, the mean of a pair, weighs both CPUs as the
   workload does. One CPU alone can be slower than the other for the
   length of a run. *)
let burst_both n =
  let other = Domain.spawn (fun () -> List.init n (fun _ -> timed ())) in
  let mine = List.init n (fun _ -> timed ()) in
  List.iter2 (fun a b -> samples := ((a +. b) /. 2.0) :: !samples) mine (Domain.join other);
  last := Unix.gettimeofday ()
