module Obs = Maxrs_obs.Obs

(* Node visits are the machine-independent cost of a kd-tree query:
   pruning quality shows up directly in [kd.visits] growth. *)
let c_visits = Obs.counter "kd.visits"
let c_points = Obs.counter "kd.points"

(* Leaves are ranges of one shared permutation array and coordinates
   live in per-axis float columns: building sorts nothing — each node
   runs one allocation-free Hoare select on its [perm] slice — and leaf
   scans stream unboxed columns instead of chasing per-point blocks.
   [pts] is retained only to hand the original [Point.t] values to
   query callbacks. *)
type node =
  | Leaf of { lo : int; hi : int }  (** inclusive range into [perm] *)
  | Node of {
      axis : int;
      split : float;
      left : node;
      right : node;
      bbox : Box.t;
    }

type t = {
  root : node;
  pts : Point.t array;
  cols : Fvec.t array;
  perm : int array;
  dims : int;
}

let leaf_capacity = 12

let bbox_of cols dims perm lo hi =
  let i0 = perm.(lo) in
  let blo = Array.init dims (fun k -> Fvec.get cols.(k) i0) in
  let bhi = Array.copy blo in
  for s = lo + 1 to hi do
    let i = Array.unsafe_get perm s in
    for k = 0 to dims - 1 do
      let v = Fvec.unsafe_get cols.(k) i in
      if v < blo.(k) then blo.(k) <- v;
      if v > bhi.(k) then bhi.(k) <- v
    done
  done;
  Box.make blo bhi

let build pts =
  let n = Array.length pts in
  assert (n > 0);
  let dims = Point.dim pts.(0) in
  Array.iter (fun p -> assert (Point.dim p = dims)) pts;
  let cols = Array.init dims (fun _ -> Fvec.create n) in
  for i = 0 to n - 1 do
    let p = pts.(i) in
    for k = 0 to dims - 1 do
      Fvec.unsafe_set cols.(k) i p.(k)
    done
  done;
  let perm = Array.init n Fun.id in
  (* Median by position: [mid] splits the slice into halves of size
     [len/2] and [len - len/2], both non-empty whenever the node
     recurses, so duplicate coordinates on the split axis cannot produce
     an empty side or unbounded recursion (the select only guarantees
     [<=] / [>=] around the median slot, which is all the query-side
     pruning needs). *)
  let rec go lo hi depth =
    let len = hi - lo + 1 in
    if len <= leaf_capacity then Leaf { lo; hi }
    else begin
      let axis = depth mod dims in
      let mid = lo + (len / 2) in
      Kern.select_idx cols.(axis) perm ~lo ~hi ~k:mid;
      let split = Fvec.get cols.(axis) perm.(mid) in
      Node
        {
          axis;
          split;
          left = go lo (mid - 1) (depth + 1);
          right = go mid hi (depth + 1);
          bbox = bbox_of cols dims perm lo hi;
        }
    end
  in
  { root = go 0 (n - 1) 0; pts; cols; perm; dims }

let size t = Array.length t.pts
let dim t = t.dims

(* Columnar squared distance from stored point [i] to [q], accumulated
   in ascending axis order — bit-identical to [Point.dist2 pts.(i) q]. *)
let dist2_to t i q =
  let acc = ref 0. in
  for k = 0 to t.dims - 1 do
    let d = Fvec.unsafe_get t.cols.(k) i -. Array.unsafe_get q k in
    acc := !acc +. (d *. d)
  done;
  !acc

let iter_in_ball t ball f =
  let r2 = Closed.ball_r2 ball.Ball.radius in
  let center = ball.Ball.center in
  let rec go node =
    Obs.incr c_visits;
    match node with
    | Leaf { lo; hi } ->
        Obs.add c_points (hi - lo + 1);
        for s = lo to hi do
          let i = Array.unsafe_get t.perm s in
          if dist2_to t i center <= r2 then f i t.pts.(i)
        done
    | Node { left; right; bbox; _ } ->
        if Box.dist2_to_point bbox center <= r2 then begin
          go left;
          go right
        end
  in
  go t.root

let count_in_ball t ball =
  let c = ref 0 in
  iter_in_ball t ball (fun _ _ -> incr c);
  !c

let count_in_box t box =
  let c = ref 0 in
  let rec go node =
    Obs.incr c_visits;
    match node with
    | Leaf { lo; hi } ->
        Obs.add c_points (hi - lo + 1);
        for s = lo to hi do
          let i = Array.unsafe_get t.perm s in
          if Box.contains box t.pts.(i) then incr c
        done
    | Node { left; right; bbox; _ } ->
        if Box.intersects_box bbox box then begin
          go left;
          go right
        end
  in
  go t.root;
  !c

let nearest t q =
  let best_i = ref (-1) and best_d2 = ref infinity in
  let rec go node =
    Obs.incr c_visits;
    match node with
    | Leaf { lo; hi } ->
        for s = lo to hi do
          let i = Array.unsafe_get t.perm s in
          let d2 = dist2_to t i q in
          if d2 < !best_d2 then begin
            best_d2 := d2;
            best_i := i
          end
        done
    | Node { axis; split; left; right; bbox; _ } ->
        if Box.dist2_to_point bbox q < !best_d2 then begin
          (* Descend the nearer side first for tighter pruning. *)
          let first, second =
            if q.(axis) < split then (left, right) else (right, left)
          in
          go first;
          go second
        end
  in
  go t.root;
  (!best_i, t.pts.(!best_i), sqrt !best_d2)
