module Circle = Maxrs_geom.Circle
module Closed = Maxrs_geom.Closed
module Angle = Maxrs_geom.Angle
module Kern = Maxrs_geom.Kern
module Pstore = Maxrs_geom.Pstore
module Fvec = Maxrs_geom.Fvec
module Obs = Maxrs_obs.Obs
module Parallel = Maxrs_parallel.Parallel
module Guard = Maxrs_resilience.Guard
module Budget = Maxrs_resilience.Budget
module Outcome = Maxrs_resilience.Outcome

(* Same event geometry as [Disk2d]; the counters are shared so that
   "sweep.events" means arc endpoints regardless of the payload. *)
let c_events = Obs.counter "sweep.events"
let c_circles = Obs.counter "sweep.circles"

type result = { x : float; y : float; value : int }

let colored_depth_at ~radius centers ~colors qx qy =
  let r2 = Closed.ball_r2 radius in
  let seen = Hashtbl.create 16 in
  Array.iteri
    (fun i (x, y) ->
      let d2 = ((x -. qx) ** 2.) +. ((y -. qy) ** 2.) in
      if d2 <= r2 then Hashtbl.replace seen colors.(i) ())
    centers;
  Hashtbl.length seen

(* Columnar twin of [colored_depth_at]; cold path (once per solve). The
   bound is spelled out as in [Disk2d.depth_at_cols]. *)
let colored_depth_at_cols ~radius xs ys colors n qx qy =
  let r2 = (radius +. Closed.eps) *. (radius +. Closed.eps) in
  let seen = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    let d2 =
      ((Fvec.unsafe_get xs i -. qx) ** 2.)
      +. ((Fvec.unsafe_get ys i -. qy) ** 2.)
    in
    if d2 <= r2 then Hashtbl.replace seen (Array.unsafe_get colors i) ()
  done;
  Hashtbl.length seen

(* Multiset of active colors with a distinct-color counter. Lookups go
   through [Hashtbl.find] + exception so the hot add/remove path never
   allocates an option. *)
module Color_counter = struct
  type t = { counts : (int, int) Hashtbl.t; mutable distinct : int }

  let create () = { counts = Hashtbl.create 32; distinct = 0 }

  let reset t =
    Hashtbl.reset t.counts;
    t.distinct <- 0

  let add t c =
    let cur = match Hashtbl.find t.counts c with v -> v | exception Not_found -> 0 in
    Hashtbl.replace t.counts c (cur + 1);
    if cur = 0 then t.distinct <- t.distinct + 1

  let remove t c =
    let cur = match Hashtbl.find t.counts c with v -> v | exception Not_found -> 0 in
    assert (cur > 0);
    Hashtbl.replace t.counts c (cur - 1);
    if cur = 1 then t.distinct <- t.distinct - 1
end

(* Per-domain sweep scratch (see [Disk2d.scratch] for the two-stream
   design and the determinism argument): angle buffers with tandem color
   payloads, plus the reused color multiset. *)
type scratch = {
  add_a : Kern.Fbuf.t;
  add_c : Kern.Ibuf.t;
  rem_a : Kern.Fbuf.t;
  rem_c : Kern.Ibuf.t;
  cov : floatarray;
  counter : Color_counter.t;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        add_a = Kern.Fbuf.create 256;
        add_c = Kern.Ibuf.create 256;
        rem_a = Kern.Fbuf.create 256;
        rem_c = Kern.Ibuf.create 256;
        cov = Float.Array.create 2;
        counter = Color_counter.create ();
      })

let sweep_circle_cols ~radius xs ys colors n i =
  let sc = Domain.DLS.get scratch_key in
  let xi = Fvec.get xs i and yi = Fvec.get ys i in
  let c = Circle.make ~cx:xi ~cy:yi ~r:radius in
  let counter = sc.counter in
  Color_counter.reset counter;
  Color_counter.add counter colors.(i);
  Kern.Fbuf.clear sc.add_a;
  Kern.Ibuf.clear sc.add_c;
  Kern.Fbuf.clear sc.rem_a;
  Kern.Ibuf.clear sc.rem_c;
  for j = 0 to n - 1 do
    if j <> i then begin
      let code =
        Circle.coverage_into c ~cx:(Fvec.unsafe_get xs j)
          ~cy:(Fvec.unsafe_get ys j) ~r:radius sc.cov
      in
      if code = Circle.cov_covered then
        Color_counter.add counter (Array.unsafe_get colors j)
      else if code = Circle.cov_arc then begin
        let start = Float.Array.get sc.cov 0
        and len = Float.Array.get sc.cov 1 in
        let col = Array.unsafe_get colors j in
        let stop = Angle.norm (start +. len) in
        Kern.Fbuf.push sc.add_a start;
        Kern.Ibuf.push sc.add_c col;
        Kern.Fbuf.push sc.rem_a stop;
        Kern.Ibuf.push sc.rem_c col;
        (* Active from the start iff it wraps (see [Disk2d]). *)
        if stop < start then Color_counter.add counter col
      end
    end
  done;
  let na = Kern.Fbuf.length sc.add_a and nr = Kern.Fbuf.length sc.rem_a in
  Obs.incr c_circles;
  Obs.add c_events (na + nr);
  Kern.sort_fi (Kern.Fbuf.data sc.add_a) (Kern.Ibuf.data sc.add_c) na;
  Kern.sort_fi (Kern.Fbuf.data sc.rem_a) (Kern.Ibuf.data sc.rem_c) nr;
  let aa = Kern.Fbuf.data sc.add_a and ac = Kern.Ibuf.data sc.add_c in
  let ra = Kern.Fbuf.data sc.rem_a and rc = Kern.Ibuf.data sc.rem_c in
  let best = ref counter.Color_counter.distinct and best_angle = ref 0. in
  let ai = ref 0 and ri = ref 0 in
  (* Adds-first on equal angles (<=), matching the old comparator. The
     distinct count after a group of same-angle adds does not depend on
     the order within the group, so the sort's tie order is free. *)
  while !ai < na || !ri < nr do
    if
      !ai < na
      && (!ri >= nr || Fvec.unsafe_get aa !ai <= Fvec.unsafe_get ra !ri)
    then begin
      Color_counter.add counter (Array.unsafe_get ac !ai);
      if counter.Color_counter.distinct > !best then begin
        best := counter.Color_counter.distinct;
        best_angle := Fvec.unsafe_get aa !ai
      end;
      incr ai
    end
    else begin
      Color_counter.remove counter (Array.unsafe_get rc !ri);
      incr ri
    end
  done;
  (!best_angle, !best)

let solve_cols ?domains ~budget ~radius xs ys colors n =
  (* Independent per-circle sweeps, reduced in index order (strict >,
     first index wins) — bit-identical for any domain count. Small
     inputs run inline: same result, no domain-spawn overhead. Under a
     budget, sweeps not yet started at expiry are skipped. *)
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
            else Some (sweep_circle_cols ~radius xs ys colors n i))
          ~reduce:(fun (i, bi, bangle, bv) r ->
            match r with
            | None -> (i + 1, bi, bangle, bv)
            | Some (angle, v) ->
                if v > bv then (i + 1, i, angle, v)
                else (i + 1, bi, bangle, bv))
          (0, -1, 0., min_int))
  in
  let result =
    if bi < 0 then
      (* Every sweep was skipped: return a trivially achievable
         candidate, the colored depth at the first center. *)
      let x = Fvec.get xs 0 and y = Fvec.get ys 0 in
      { x; y; value = colored_depth_at_cols ~radius xs ys colors n x y }
    else begin
      let c = Circle.make ~cx:(Fvec.get xs bi) ~cy:(Fvec.get ys bi) ~r:radius in
      let x, y = Circle.point_at c angle in
      (* Re-evaluate at the witness (cf. Output_sensitive): on
         ill-conditioned inputs the angular count can exceed what any
         concrete point achieves, and the reported value must be
         achievable at (x, y). Equal to the sweep count whenever the
         witness is representable. *)
      { x; y; value = colored_depth_at_cols ~radius xs ys colors n x y }
    end
  in
  if Atomic.get skipped = 0 then Outcome.Complete result
  else Outcome.Partial result

let solve ?domains ~budget ~radius centers ~colors =
  let store = Pstore.of_planar_colored centers ~colors in
  solve_cols ?domains ~budget ~radius (Pstore.col store 0) (Pstore.col store 1)
    (Pstore.colors store) (Pstore.length store)

let max_colored_store ?domains ?(budget = Budget.unlimited) ~radius store =
  if Pstore.dims store <> 2 then
    invalid_arg "Colored_disk2d.max_colored_store: store must be planar";
  if not (Pstore.has_colors store) then
    invalid_arg "Colored_disk2d.max_colored_store: store has no colors";
  solve_cols ?domains ~budget ~radius (Pstore.col store 0) (Pstore.col store 1)
    (Pstore.colors store) (Pstore.length store)

let max_colored_checked ?domains ?(budget = Budget.unlimited) ~radius centers
    ~colors =
  let cols = colors in
  (* rebound: [open Guard] below shadows [colors] *)
  let open Guard in
  let* () = positive ~field:"radius" radius in
  let* () = non_empty ~field:"centers" centers in
  let* () = planar_points ~field:"centers" centers in
  let* () =
    length_matches ~field:"colors" ~expected:(Array.length centers) cols
  in
  Ok (solve ?domains ~budget ~radius centers ~colors:cols)

let max_colored ?domains ~radius centers ~colors =
  Outcome.value
    (Guard.ok_exn (max_colored_checked ?domains ~radius centers ~colors))
