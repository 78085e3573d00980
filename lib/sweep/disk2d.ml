module Circle = Maxrs_geom.Circle
module Closed = Maxrs_geom.Closed
module Kern = Maxrs_geom.Kern
module Lend = Maxrs_geom.Lend
module Pstore = Maxrs_geom.Pstore
module Fvec = Maxrs_geom.Fvec
module Obs = Maxrs_obs.Obs
module Parallel = Maxrs_parallel.Parallel
module Guard = Maxrs_resilience.Guard
module Budget = Maxrs_resilience.Budget
module Outcome = Maxrs_resilience.Outcome

(* Arc endpoints are the primitive operation of the Θ(n²) exact sweep
   (two per intersecting pair, per boundary circle); the counters are
   shared with [Colored_disk2d], which runs the same event geometry. *)
let c_events = Obs.counter "sweep.events"
let c_circles = Obs.counter "sweep.circles"

type result = { x : float; y : float; value : float }

let depth_at ~radius pts qx qy =
  let r2 = Closed.ball_r2 radius in
  Array.fold_left
    (fun acc (x, y, w) ->
      let d2 = ((x -. qx) ** 2.) +. ((y -. qy) ** 2.) in
      if d2 <= r2 then acc +. w else acc)
    0. pts

(* Columnar twin of [depth_at]: same accumulation order, bit-identical.
   The bound is [Closed.ball_r2 radius] spelled out: a float returned
   across modules is boxed when the call is not inlined (DESIGN.md §14). *)
let depth_at_cols ~radius xs ys ws n qx qy =
  let r2 = (radius +. Closed.eps) *. (radius +. Closed.eps) in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    let d2 =
      ((Fvec.unsafe_get xs i -. qx) ** 2.)
      +. ((Fvec.unsafe_get ys i -. qy) ** 2.)
    in
    if d2 <= r2 then acc := !acc +. Fvec.unsafe_get ws i
  done;
  !acc

(* Per-domain sweep scratch, lent to one sweep at a time ([Lend]): the
   n per-center sweeps of one solve reuse these buffers, so steady-state
   sweeping allocates nothing. Additions and removals are kept as two
   separately sorted streams merged adds-first on equal angles — the
   same event order as the old single sort with its (angle asc, signed
   weight desc) comparator, since add weights are >= 0 and removal
   weights <= 0. Results never depend on scratch contents, so
   determinism is unaffected. *)
type scratch = {
  add_a : Kern.Fbuf.t;  (** addition angles *)
  add_w : Kern.Fbuf.t;  (** addition weights (>= 0) *)
  rem_a : Kern.Fbuf.t;  (** removal angles *)
  rem_w : Kern.Fbuf.t;  (** removal weights (negated, <= 0) *)
  cov : floatarray;  (** [Circle.coverage_into] out-buffer *)
}

let scratch =
  Lend.make (fun () ->
      {
        add_a = Kern.Fbuf.create 256;
        add_w = Kern.Fbuf.create 256;
        rem_a = Kern.Fbuf.create 256;
        rem_w = Kern.Fbuf.create 256;
        cov = Float.Array.create 3;
      })

(* Defined here, not called across modules, so the float is stored
   unboxed ([Kern.Fbuf.reserve]). *)
let[@inline] push b x =
  let k = Kern.Fbuf.reserve b in
  Fvec.unsafe_set (Kern.Fbuf.data b) k x

(* Sweep the boundary circle of disk [i]. Ties are resolved by
   processing additions first so that closed-arc endpoints count as
   covered. Returns (best angle, best depth). *)
let sweep_circle_on sc ~radius xs ys ws n i =
  let base = ref (Fvec.get ws i) in
  Kern.Fbuf.clear sc.add_a;
  Kern.Fbuf.clear sc.add_w;
  Kern.Fbuf.clear sc.rem_a;
  Kern.Fbuf.clear sc.rem_w;
  for j = 0 to n - 1 do
    if j <> i then begin
      let wj = Fvec.unsafe_get ws j in
      let code = Circle.coverage_into xs ys ~r:radius i j sc.cov in
      if code = Circle.cov_covered then base := !base +. wj
      else if code = Circle.cov_arc then begin
        let start = Float.Array.get sc.cov 0
        and stop = Float.Array.get sc.cov 2 in
        push sc.add_a start;
        push sc.add_w wj;
        push sc.rem_a stop;
        push sc.rem_w (-.wj);
        (* An arc whose removal the sweep meets before its addition
           wraps past angle 0: it is active from the start. One that
           starts at 0 is added by its own event, not counted twice. *)
        if stop < start then base := !base +. wj
      end
    end
  done;
  let na = Kern.Fbuf.length sc.add_a and nr = Kern.Fbuf.length sc.rem_a in
  Obs.incr c_circles;
  Obs.add c_events (na + nr);
  Kern.sort_ff (Kern.Fbuf.data sc.add_a) (Kern.Fbuf.data sc.add_w) na;
  Kern.sort_ff (Kern.Fbuf.data sc.rem_a) (Kern.Fbuf.data sc.rem_w) nr;
  let aa = Kern.Fbuf.data sc.add_a and aw = Kern.Fbuf.data sc.add_w in
  let ra = Kern.Fbuf.data sc.rem_a and rw = Kern.Fbuf.data sc.rem_w in
  let active = ref !base in
  let best = ref !base and best_angle = ref 0. in
  let ai = ref 0 and ri = ref 0 in
  while !ai < na || !ri < nr do
    let take_add =
      !ai < na
      && (!ri >= nr || Fvec.unsafe_get aa !ai <= Fvec.unsafe_get ra !ri)
    in
    let a, w =
      if take_add then (Fvec.unsafe_get aa !ai, Fvec.unsafe_get aw !ai)
      else (Fvec.unsafe_get ra !ri, Fvec.unsafe_get rw !ri)
    in
    if take_add then incr ai else incr ri;
    active := !active +. w;
    if !active > !best then begin
      best := !active;
      best_angle := a
    end
  done;
  (!best_angle, !best)

let sweep_circle_cols ~radius xs ys ws n i =
  let sc = Lend.take scratch in
  match sweep_circle_on sc ~radius xs ys ws n i with
  | r ->
      Lend.give scratch sc;
      r
  | exception e ->
      Lend.give scratch sc;
      raise e

let solve_cols ?domains ~budget ~radius xs ys ws n =
  (* The n circle sweeps are independent; run them on the domain pool
     and keep the sequential argmax semantics (strict >, first index
     wins) by reducing in index order. Under a budget, circles whose
     sweep has not started when the deadline passes are skipped (the
     sweep itself is O(n log n), a bounded overshoot). *)
  let domains = if n < 32 then 1 else Parallel.resolve domains in
  let skipped = Atomic.make 0 in
  let _, bi, angle, _v =
    Parallel.with_pool ~domains (fun pool ->
        Parallel.map_reduce pool ~n
          ~map:(fun i ->
            if Budget.expired budget then begin
              Atomic.incr skipped;
              None
            end
            else Some (sweep_circle_cols ~radius xs ys ws n i))
          ~reduce:(fun (i, bi, bangle, bv) r ->
            match r with
            | None -> (i + 1, bi, bangle, bv)
            | Some (angle, v) ->
                if v > bv then (i + 1, i, angle, v)
                else (i + 1, bi, bangle, bv))
          (0, -1, 0., Float.neg_infinity))
  in
  let result =
    if bi < 0 then
      (* Every sweep was skipped: return a trivially achievable
         candidate, the depth at the first input point. *)
      let x = Fvec.get xs 0 and y = Fvec.get ys 0 in
      { x; y; value = depth_at_cols ~radius xs ys ws n x y }
    else begin
      let c = Circle.make ~cx:(Fvec.get xs bi) ~cy:(Fvec.get ys bi) ~r:radius in
      let x, y = Circle.point_at c angle in
      (* Re-evaluate at the witness (cf. Output_sensitive): on
         ill-conditioned inputs the angular count can exceed what any
         concrete point achieves, and the reported value must be
         achievable at (x, y). Equal to the sweep count whenever the
         witness is representable. *)
      { x; y; value = depth_at_cols ~radius xs ys ws n x y }
    end
  in
  if Atomic.get skipped = 0 then Outcome.Complete result
  else Outcome.Partial result

let solve ?domains ~budget ~radius pts =
  (* Thin adapter: lift the boxed triples into flat columns once, then
     run the columnar solve. *)
  let store = Pstore.of_triples pts in
  solve_cols ?domains ~budget ~radius (Pstore.col store 0) (Pstore.col store 1)
    (Pstore.weights store) (Pstore.length store)

let max_weight_store ?domains ?(budget = Budget.unlimited) ~radius store =
  if Pstore.dims store <> 2 then
    invalid_arg "Disk2d.max_weight_store: store must be planar";
  solve_cols ?domains ~budget ~radius (Pstore.col store 0) (Pstore.col store 1)
    (Pstore.weights store) (Pstore.length store)

let max_weight_checked ?domains ?(budget = Budget.unlimited) ~radius pts =
  let open Guard in
  let* () = positive ~field:"radius" radius in
  let* () = non_empty ~field:"points" pts in
  let* () = weighted_triples ~field:"points" pts in
  Ok (solve ?domains ~budget ~radius pts)

let max_weight ?domains ~radius pts =
  Outcome.value (Guard.ok_exn (max_weight_checked ?domains ~radius pts))
