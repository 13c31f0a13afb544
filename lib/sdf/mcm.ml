type cycle = {
  cycle_actors : Graph.actor_id list;
  cycle_time : int;
  cycle_tokens : int;
}

type outcome =
  | Ratio of { lambda : Rational.t; critical : cycle }
  | Deadlock of cycle
  | Acyclic

exception Diverged

type csr = {
  time : int array;
  row : int array;
  succ : int array;
  tokens : int array;
}

let node_count c = Array.length c.time

(* Stable counting sort of the elements [0 .. m - 1] by [key.(e)], a bucket
   in [0 .. buckets - 1]: bucket [b] is [sorted.(start.(b) .. start.(b + 1) - 1)],
   in increasing element order. *)
let bucket_sort key m buckets =
  let start = Array.make (buckets + 1) 0 in
  for e = 0 to m - 1 do
    start.(key.(e) + 1) <- start.(key.(e) + 1) + 1
  done;
  for b = 0 to buckets - 1 do
    start.(b + 1) <- start.(b + 1) + start.(b)
  done;
  let fill = Array.sub start 0 buckets and sorted = Array.make m 0 in
  for e = 0 to m - 1 do
    let b = key.(e) in
    sorted.(fill.(b)) <- e;
    fill.(b) <- fill.(b) + 1
  done;
  (start, sorted)

(* Parallel edges collapse to the fewest tokens: the edge time is the
   source's execution time, identical for parallel edges, so the min-token
   edge strictly dominates both ratio and deadlock. The edges are bucketed
   by source, keeping discovery order within a bucket; a per-destination
   stamp then finds the first edge of each pair in it. *)
let csr_of_edges ~time ~src ~dst ~tokens m =
  let n = Array.length time in
  let row, order = bucket_sort src m n in
  let stamp = Array.make n (-1) and first = Array.make n 0 in
  let succ = Array.make m 0 and tok = Array.make m 0 in
  let k = ref 0 in
  for u = 0 to n - 1 do
    let lo = row.(u) and hi = row.(u + 1) in
    let start = !k in
    row.(u) <- start;
    (* compact the bucket in place: [order.(start .. !k - 1)] holds the
       first edge of each pair, in discovery order *)
    for i = lo to hi - 1 do
      let e = order.(i) in
      let v = dst.(e) in
      if stamp.(v) <> u then begin
        stamp.(v) <- u;
        first.(v) <- e;
        order.(!k) <- e;
        incr k
      end
      else begin
        let f = first.(v) in
        if tokens.(e) < tokens.(f) then tokens.(f) <- tokens.(e);
        tokens.(e) <- -1
      end
    done;
    (* the row lists the pairs latest-discovered first *)
    let last = !k - 1 in
    for j = start to last do
      let e = order.(j) and p = start + last - j in
      succ.(p) <- dst.(e);
      tok.(p) <- tokens.(e)
    done
  done;
  row.(n) <- !k;
  let m' = !k in
  let succ, tok =
    if m' = m then (succ, tok) else (Array.sub succ 0 m', Array.sub tok 0 m')
  in
  { time; row; succ; tokens = tok }

let csr_of_graph g =
  let n = Graph.actor_count g in
  let time = Array.init n (fun a -> (Graph.actor g a).Graph.execution_time) in
  let m = Graph.channel_count g in
  let src = Array.make m 0 and dst = Array.make m 0 and tokens = Array.make m 0 in
  List.iteri
    (fun e (c : Graph.channel) ->
      src.(e) <- c.Graph.source;
      dst.(e) <- c.Graph.target;
      tokens.(e) <- c.Graph.initial_tokens)
    (Graph.channels g);
  csr_of_edges ~time ~src ~dst ~tokens m

let rec list_of_slice a lo hi acc =
  if hi < lo then acc else list_of_slice a lo (hi - 1) (a.(hi) :: acc)

(* Iterative DFS for a cycle of token-free edges; such a cycle can never
   fire and is the structural image of an execution deadlock. The explicit
   stack spells the grey path, so a grey target closes the cycle. *)
let find_zero_cycle c =
  let n = node_count c in
  let { row; succ; tokens; _ } = c in
  let color = Array.make n 0 in
  let stack = Array.make n 0 and cursor = Array.make n 0 in
  let found = ref None in
  let root = ref 0 in
  while Option.is_none !found && !root < n do
    let r = !root in
    if color.(r) = 0 then begin
      color.(r) <- 1;
      cursor.(r) <- row.(r);
      stack.(0) <- r;
      let sp = ref 1 in
      while !sp > 0 do
        let u = stack.(!sp - 1) in
        let i = cursor.(u) in
        if i = row.(u + 1) then begin
          color.(u) <- 2;
          decr sp
        end
        else begin
          cursor.(u) <- i + 1;
          if tokens.(i) = 0 then begin
            let v = succ.(i) in
            if color.(v) = 0 then begin
              color.(v) <- 1;
              cursor.(v) <- row.(v);
              stack.(!sp) <- v;
              incr sp
            end
            else if color.(v) = 1 then begin
              let j = ref (!sp - 1) in
              while stack.(!j) <> v do
                decr j
              done;
              found := Some (list_of_slice stack !j (!sp - 1) []);
              sp := 0
            end
          end
        end
      done
    end;
    incr root
  done;
  !found

(* Iterative Tarjan (a recursive one would overflow the OCaml stack on
   chain-shaped HSDF graphs with 10^5 instances). Fills [comp] with
   component ids in order of completion and returns their count. *)
let strongly_connected c comp =
  let n = node_count c in
  let { row; succ; _ } = c in
  let index = Array.make n (-1) and low = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = Array.make n 0 and call = Array.make n 0 in
  let cursor = Array.make n 0 in
  let sp = ref 0 and counter = ref 0 and ncomp = ref 0 in
  let discover v =
    index.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    cursor.(v) <- row.(v);
    stack.(!sp) <- v;
    incr sp;
    on_stack.(v) <- true
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      discover root;
      call.(0) <- root;
      let csp = ref 1 in
      while !csp > 0 do
        let u = call.(!csp - 1) in
        let i = cursor.(u) in
        if i = row.(u + 1) then begin
          decr csp;
          if !csp > 0 then begin
            let p = call.(!csp - 1) in
            if low.(u) < low.(p) then low.(p) <- low.(u)
          end;
          if low.(u) = index.(u) then begin
            let more = ref true in
            while !more do
              decr sp;
              let v = stack.(!sp) in
              on_stack.(v) <- false;
              comp.(v) <- !ncomp;
              more := v <> u
            done;
            incr ncomp
          end
        end
        else begin
          cursor.(u) <- i + 1;
          let v = succ.(i) in
          if index.(v) < 0 then begin
            discover v;
            call.(!csp) <- v;
            incr csp
          end
          else if on_stack.(v) && index.(v) < low.(u) then low.(u) <- index.(v)
        end
      done
    end
  done;
  !ncomp

(* Per-node state shared by every [howard] call of one analysis: component
   member sets are disjoint, so it lives in full-size arrays that need no
   clearing between components. [irow]/[isucc]/[itok] are the CSR
   restricted to intra-component edges, in the same row order;
   [rrow]/[rsrc] are the same edges reversed (the in-neighbours of each
   node). *)
type scratch = {
  times : int array;
  irow : int array;
  isucc : int array;
  itok : int array;
  rrow : int array;
  rsrc : int array;
  lam_num : int array;  (** current cycle ratio, normalized numerator *)
  lam_den : int array;  (** … and denominator (> 0) *)
  x : int array;  (** potential, scaled by the node's [lam_den] *)
  pol_dst : int array;  (** policy successor *)
  pol_w : int array;  (** policy edge tokens *)
  state : int array;  (** walk colour, see {!value_determination} *)
  path : int array;  (** value-determination walk; the set A of {!revalue} *)
  queue : int array;  (** {!revalue}'s top-down order *)
  switched : int array;  (** nodes the last phase 2 switched *)
  mutable n_switched : int;
  scan : int array;  (** nodes the next improvement scans … *)
  mutable n_scan : int;  (** … or [-1]: every member *)
  seen : int array;  (** [epoch] stamp: already in [scan] *)
  mutable epoch : int;
  mutable cycles : int;  (** policy cycles found by the last walk *)
  mutable w_root : int;  (** head of the first of them *)
}

let make_scratch c comp =
  let n = node_count c in
  let { row; succ; tokens; _ } = c in
  let m = Array.length succ in
  let irow = Array.make (n + 1) 0 in
  let isucc = Array.make m 0 and itok = Array.make m 0 in
  let k = ref 0 in
  for u = 0 to n - 1 do
    irow.(u) <- !k;
    for i = row.(u) to row.(u + 1) - 1 do
      if comp.(succ.(i)) = comp.(u) then begin
        isucc.(!k) <- succ.(i);
        itok.(!k) <- tokens.(i);
        incr k
      end
    done
  done;
  irow.(n) <- !k;
  (* the reverse rows, by a counting sort of the edges on destination *)
  let rrow = Array.make (n + 1) 0 and rsrc = Array.make !k 0 in
  for i = 0 to !k - 1 do
    rrow.(isucc.(i) + 1) <- rrow.(isucc.(i) + 1) + 1
  done;
  for v = 0 to n - 1 do
    rrow.(v + 1) <- rrow.(v + 1) + rrow.(v)
  done;
  let fill = Array.sub rrow 0 n in
  for u = 0 to n - 1 do
    for i = irow.(u) to irow.(u + 1) - 1 do
      let v = isucc.(i) in
      rsrc.(fill.(v)) <- u;
      fill.(v) <- fill.(v) + 1
    done
  done;
  {
    times = c.time;
    irow;
    isucc;
    itok;
    rrow;
    rsrc;
    lam_num = Array.make n 0;
    lam_den = Array.make n 1;
    x = Array.make n 0;
    pol_dst = Array.make n 0;
    pol_w = Array.make n 0;
    state = Array.make n 0;
    path = Array.make n 0;
    queue = Array.make n 0;
    switched = Array.make n 0;
    n_switched = 0;
    scan = Array.make n 0;
    n_scan = -1;
    seen = Array.make n (-1);
    epoch = 0;
    cycles = 0;
    w_root = 0;
  }

(* Walk colours: unvisited, on the current walk, settled, and settled on a
   policy cycle. *)
let fresh = 0
and walking = 1
and settled = 2
and on_cycle = 3

(* Walk every member along the policy: each walk either closes a new policy
   cycle, whose ratio and potentials it fixes, or runs into a settled node;
   the walked tail then inherits ratio and potential backwards, latest
   first. The first cycle found is recorded as the witness; its head
   [w_root] is where the walk from the lowest-id member enters it. *)
let value_determination s members lo hi =
  let { times = time; lam_num; lam_den; x; pol_dst; pol_w; state; path; _ } =
    s
  in
  for j = lo to hi - 1 do
    state.(members.(j)) <- fresh
  done;
  s.cycles <- 0;
  s.n_scan <- -1;
  for j = lo to hi - 1 do
    let u0 = members.(j) in
    if state.(u0) = fresh then begin
      let len = ref 0 and u = ref u0 in
      while state.(!u) = fresh do
        state.(!u) <- walking;
        path.(!len) <- !u;
        incr len;
        u := pol_dst.(!u)
      done;
      let len = !len in
      let root = !u in
      if state.(root) = walking then begin
        let p = ref (len - 1) in
        while path.(!p) <> root do
          decr p
        done;
        let p = !p in
        let ct = ref 0 and cw = ref 0 in
        for q = p to len - 1 do
          ct := !ct + time.(path.(q));
          cw := !cw + pol_w.(path.(q))
        done;
        let ct = !ct and cw = !cw in
        if cw <= 0 then raise Diverged;
        let g = Rational.gcd_int ct cw in
        let num = ct / g and den = cw / g in
        if s.cycles = 0 then s.w_root <- root;
        s.cycles <- s.cycles + 1;
        lam_num.(root) <- num;
        lam_den.(root) <- den;
        x.(root) <- 0;
        state.(root) <- on_cycle;
        for q = len - 1 downto p + 1 do
          let v = path.(q) in
          lam_num.(v) <- num;
          lam_den.(v) <- den;
          x.(v) <- (den * time.(v)) - (num * pol_w.(v)) + x.(pol_dst.(v));
          state.(v) <- on_cycle
        done
      end;
      for q = len - 1 downto 0 do
        let v = path.(q) in
        if state.(v) = walking then begin
          let succ = pol_dst.(v) in
          let num = lam_num.(succ) and den = lam_den.(succ) in
          lam_num.(v) <- num;
          lam_den.(v) <- den;
          x.(v) <- (den * time.(v)) - (num * pol_w.(v)) + x.(succ);
          state.(v) <- settled
        end
      done
    end
  done

(* The incremental value determination after a phase-2 switch of
   [switched] under a single policy cycle: only the nodes A whose policy
   path now runs through a switched node can have a new potential. A is
   found backwards from the switched nodes along the policy, then settled
   top-down from the switched nodes whose successor lies outside A — the
   same integers the full walk would compute, as long as the cycle and the
   root stay put. [false] (and nothing to trust) when they may not: the
   lowest-id member in A (its walk picks the root), or a node of A that
   never reaches outside A (a new policy cycle). A switched node on the
   cycle puts every member in A, so testing it first only saves the
   search. On success the next improvement needs to scan only the
   in-neighbours of A: every other node keeps its potential and those of
   its successors, and so its verdict. *)
let revalue s members lo =
  let { times = time; rrow; rsrc; lam_num; lam_den; x; pol_dst; pol_w; _ } =
    s
  in
  let { state; path = a; queue; switched; scan; seen; _ } = s in
  let rec cycle_untouched j =
    j = s.n_switched
    || (state.(switched.(j)) <> on_cycle && cycle_untouched (j + 1))
  in
  cycle_untouched 0
  &&
  let na = ref 0 in
  for j = 0 to s.n_switched - 1 do
    let u = switched.(j) in
    state.(u) <- walking;
    a.(!na) <- u;
    incr na
  done;
  let k = ref 0 in
  while !k < !na do
    let v = a.(!k) in
    incr k;
    for r = rrow.(v) to rrow.(v + 1) - 1 do
      let u = rsrc.(r) in
      if state.(u) <> walking && pol_dst.(u) = v then begin
        state.(u) <- walking;
        a.(!na) <- u;
        incr na
      end
    done
  done;
  let na = !na in
  state.(members.(lo)) <> walking
  &&
  let num = lam_num.(members.(lo)) and den = lam_den.(members.(lo)) in
  let settle v =
    x.(v) <- (den * time.(v)) - (num * pol_w.(v)) + x.(pol_dst.(v));
    state.(v) <- settled
  in
  let nq = ref 0 in
  for j = 0 to s.n_switched - 1 do
    let u = switched.(j) in
    if state.(pol_dst.(u)) <> walking then begin
      settle u;
      queue.(!nq) <- u;
      incr nq
    end
  done;
  let k = ref 0 in
  while !k < !nq do
    let v = queue.(!k) in
    incr k;
    for r = rrow.(v) to rrow.(v + 1) - 1 do
      let u = rsrc.(r) in
      if state.(u) = walking && pol_dst.(u) = v then begin
        settle u;
        queue.(!nq) <- u;
        incr nq
      end
    done
  done;
  !nq = na
  &&
  let epoch = s.epoch + 1 in
  s.epoch <- epoch;
  s.n_scan <- 0;
  for j = 0 to na - 1 do
    let v = a.(j) in
    for r = rrow.(v) to rrow.(v + 1) - 1 do
      let u = rsrc.(r) in
      if seen.(u) <> epoch then begin
        seen.(u) <- epoch;
        scan.(s.n_scan) <- u;
        s.n_scan <- s.n_scan + 1
      end
    done
  done;
  true

(* One policy improvement; [true] when the policy changed. Phase 1 chases
   a larger reachable cycle ratio. It is skipped when the walk found a
   single policy cycle: then every member has that cycle's ratio and no
   successor can be strictly larger. Phase 2 keeps the ratio and improves
   the potential; the scaled comparison is exact, since equal ratios mean
   equal scales. Each node's phase-2 verdict reads only potentials, so
   scanning the subset {!revalue} left in [scan] switches exactly the nodes
   a scan of every member would. *)
let improve s members lo hi =
  let { times = time; irow; isucc; itok; lam_num; lam_den; x; pol_dst; pol_w; _ }
      =
    s
  in
  let changed = ref false in
  if s.cycles > 1 then
    for j = lo to hi - 1 do
      let u = members.(j) in
      let bn = ref lam_num.(u) and bd = ref lam_den.(u) in
      let best = ref (-1) in
      for i = irow.(u) to irow.(u + 1) - 1 do
        let v = isucc.(i) in
        (* strictly larger ratio; den > 0 on both sides *)
        if lam_num.(v) * !bd > !bn * lam_den.(v) then begin
          bn := lam_num.(v);
          bd := lam_den.(v);
          best := i
        end
      done;
      if !best >= 0 then begin
        pol_dst.(u) <- isucc.(!best);
        pol_w.(u) <- itok.(!best);
        changed := true
      end
    done;
  if !changed then true
  else begin
    let nodes, lo, hi =
      if s.n_scan < 0 then (members, lo, hi) else (s.scan, 0, s.n_scan)
    in
    s.n_switched <- 0;
    for j = lo to hi - 1 do
      let u = nodes.(j) in
      let num = lam_num.(u) and den = lam_den.(u) in
      let best = ref x.(u) and best_i = ref (-1) in
      for i = irow.(u) to irow.(u + 1) - 1 do
        let v = isucc.(i) in
        if lam_num.(v) = num && lam_den.(v) = den then begin
          let value = (den * time.(u)) - (num * itok.(i)) + x.(v) in
          if value > !best then begin
            best := value;
            best_i := i
          end
        end
      done;
      if !best_i >= 0 then begin
        pol_dst.(u) <- isucc.(!best_i);
        pol_w.(u) <- itok.(!best_i);
        s.switched.(s.n_switched) <- u;
        s.n_switched <- s.n_switched + 1
      end
    done;
    s.n_switched > 0
  end

(* Howard's policy iteration restricted to one strongly connected component,
   [members.(lo .. hi - 1)] in increasing id order. Returns the component's
   maximum cycle ratio and a witness cycle; the fixpoint is accepted only
   with the optimality certificate x(u) >= t(u) - lambda*w(e) + x(v) on
   every component edge, which proves lambda dominates every cycle ratio
   while the witness realises it.

   All arithmetic is integral and exact: lambda lives as a normalized
   num/den pair and the potential x is kept scaled by den, so the (max,+)
   edge value t(u) - lambda*w + x(v) becomes den*t(u) - num*w + x(v).
   Potentials are only ever compared between nodes whose lambdas are equal
   (same normalized pair, hence same scale), which keeps the scaled
   comparison exact. A magnitude precheck rejects components whose scaled
   potentials could overflow [int] (raising {!Diverged}, so callers fall
   back to the state space). *)
let howard s members lo hi =
  let { times = time; irow; isucc; itok; lam_num; lam_den; x; pol_dst; pol_w; _ }
      =
    s
  in
  let size = hi - lo in
  let sum_t = ref 0 and sum_w = ref 0 and tmax = ref 0 and wmax = ref 0 in
  for j = lo to hi - 1 do
    let u = members.(j) in
    if irow.(u) = irow.(u + 1) then raise Diverged;
    pol_dst.(u) <- isucc.(irow.(u));
    pol_w.(u) <- itok.(irow.(u));
    sum_t := !sum_t + time.(u);
    if time.(u) > !tmax then tmax := time.(u);
    for i = irow.(u) to irow.(u + 1) - 1 do
      sum_w := !sum_w + itok.(i);
      if itok.(i) > !wmax then wmax := itok.(i)
    done
  done;
  (* |x| <= size * (den*tmax + num*wmax) with num <= sum_t, den <= sum_w;
     cross-multiplied lambda comparisons are bounded by sum_t * sum_w *)
  let bound =
    float_of_int size
    *. ((float_of_int !sum_w *. float_of_int !tmax)
       +. (float_of_int !sum_t *. float_of_int (Stdlib.max 1 !wmax)))
  in
  if bound > 4.0e18 then raise Diverged;
  let max_iterations = 1000 + (10 * size) in
  value_determination s members lo hi;
  let iterations = ref 0 in
  while
    Exec.Budget.check ();
    improve s members lo hi
  do
    incr iterations;
    if !iterations > max_iterations then raise Diverged;
    (* under a single policy cycle phase 1 is skipped, so the change was a
       phase-2 switch that {!revalue} may absorb *)
    if not (s.cycles = 1 && revalue s members lo) then
      value_determination s members lo hi
  done;
  let num = lam_num.(members.(lo)) and den = lam_den.(members.(lo)) in
  (* certificate: lambda uniform and the potential dominates every edge *)
  for j = lo to hi - 1 do
    let u = members.(j) in
    if lam_num.(u) <> num || lam_den.(u) <> den then raise Diverged;
    for i = irow.(u) to irow.(u + 1) - 1 do
      if x.(u) < (den * time.(u)) - (num * itok.(i)) + x.(isucc.(i)) then
        raise Diverged
    done
  done;
  (* the final improvement changed nothing, so the policy still spells the
     witness found by the last walk *)
  let rec spell v (actors, ct, cw) =
    let acc = (v :: actors, ct + time.(v), cw + pol_w.(v)) in
    if pol_dst.(v) = s.w_root then acc else spell pol_dst.(v) acc
  in
  let actors, cycle_time, cycle_tokens = spell s.w_root ([], 0, 0) in
  ( Rational.make num den,
    { cycle_actors = List.rev actors; cycle_time; cycle_tokens } )

let max_cycle_ratio_csr c =
  let n = node_count c in
  if n = 0 then Acyclic
  else
    match find_zero_cycle c with
    | Some actors ->
        Deadlock
          {
            cycle_actors = actors;
            cycle_time = List.fold_left (fun a v -> a + c.time.(v)) 0 actors;
            cycle_tokens = 0;
          }
    | None ->
        let comp = Array.make n 0 in
        let ncomp = strongly_connected c comp in
        (* members grouped by component, increasing id order within each *)
        let start, members = bucket_sort comp n ncomp in
        let s = make_scratch c comp in
        let best = ref None in
        for ci = 0 to ncomp - 1 do
          let lo = start.(ci) and hi = start.(ci + 1) in
          let m0 = members.(lo) in
          (* a lone node is cyclic when it has a self-loop: its only
             intra-component edge *)
          if hi - lo > 1 || s.irow.(m0) < s.irow.(m0 + 1) then begin
            let lambda, witness = howard s members lo hi in
            match !best with
            | Some (l, _) when Rational.compare lambda l <= 0 -> ()
            | _ -> best := Some (lambda, witness)
          end
        done;
        (match !best with
        | None -> Acyclic
        | Some (lambda, critical) -> Ratio { lambda; critical })

let max_cycle_ratio g = max_cycle_ratio_csr (csr_of_graph g)
