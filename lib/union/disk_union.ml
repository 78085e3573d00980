module Circle = Maxrs_geom.Circle
module Angle = Maxrs_geom.Angle
module Closed = Maxrs_geom.Closed
module Fvec = Maxrs_geom.Fvec

type arc = { disk : int; circle : Circle.t; ivl : Angle.ivl }

(* The union pass's scratch: the spans the other disks cover on one
   circle, and the arcs they leave. Grows, never shrinks. *)
type pass = {
  mutable span_s : Fvec.t;
  mutable span_l : Fvec.t;
  mutable arc_s : Fvec.t;
  mutable arc_l : Fvec.t;
  cov : floatarray;  (** [Circle.coverage_into] out-buffer *)
}

let pass () =
  {
    span_s = Fvec.create 16;
    span_l = Fvec.create 16;
    arc_s = Fvec.create 32;
    arc_l = Fvec.create 32;
    cov = Float.Array.create 3;
  }

let reserve p m =
  if Fvec.length p.span_s < m then begin
    let cap = Int.max m (2 * Fvec.length p.span_s) in
    p.span_s <- Fvec.create cap;
    p.span_l <- Fvec.create cap;
    p.arc_s <- Fvec.create (2 * cap);
    p.arc_l <- Fvec.create (2 * cap)
  end

(* Disks equal within [Closed.eps] cover each other's circles; letting
   only an earlier disk bury a later one keeps the first of every such
   group, exactly coincident or not, and its boundary. *)
let disk_arcs p xs ys ~r order ~lo ~hi k =
  reserve p (hi - lo);
  let a = order.(k) in
  let spans = ref 0 and buried = ref false and q = ref lo in
  while (not !buried) && !q < hi do
    if !q <> k then begin
      let code = Circle.coverage_into xs ys ~r a order.(!q) p.cov in
      if code = Circle.cov_covered then buried := !q < k
      else if code = Circle.cov_arc then begin
        Fvec.set p.span_s !spans (Float.Array.get p.cov 0);
        Fvec.set p.span_l !spans (Float.Array.get p.cov 1);
        incr spans
      end
    end;
    incr q
  done;
  if !buried then 0
  else Angle.complement_into p.span_s p.span_l !spans p.arc_s p.arc_l

let boundary_arcs ~radius centers =
  assert (radius > 0.);
  let m = Array.length centers in
  let xs = Fvec.init m (fun i -> fst centers.(i))
  and ys = Fvec.init m (fun i -> snd centers.(i)) in
  let order = Array.init m Fun.id in
  let p = pass () in
  let arcs = ref [] in
  for k = 0 to m - 1 do
    let count = disk_arcs p xs ys ~r:radius order ~lo:0 ~hi:m k in
    if count > 0 then begin
      let cx, cy = centers.(k) in
      let circle = Circle.make ~cx ~cy ~r:radius in
      for t = 0 to count - 1 do
        let ivl =
          { Angle.start = Fvec.get p.arc_s t; len = Fvec.get p.arc_l t }
        in
        arcs := { disk = k; circle; ivl } :: !arcs
      done
    end
  done;
  !arcs

let contains ~radius centers (qx, qy) =
  let r2 = Closed.ball_r2 radius in
  Array.exists
    (fun (x, y) -> ((x -. qx) ** 2.) +. ((y -. qy) ** 2.) <= r2)
    centers

let arc_sample arc = Circle.point_at arc.circle (Angle.midpoint arc.ivl)
