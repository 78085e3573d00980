type t = { cx : float; cy : float; r : float }

let make ~cx ~cy ~r =
  assert (r > 0.);
  { cx; cy; r }

let point_at c theta = (c.cx +. (c.r *. cos theta), c.cy +. (c.r *. sin theta))
let angle_of c x y = Angle.norm (atan2 (y -. c.cy) (x -. c.cx))

type coverage = Disjoint | Covered | Arc of Angle.ivl

let cov_disjoint = 0
let cov_covered = 1
let cov_arc = 2

(* [Angle.norm], same float operations. A local copy so that the sweeps'
   per-pair test passes no float across a module boundary: without
   cross-module inlining each such call boxes its argument and its
   result. *)
let[@inline] norm a =
  let r = Float.rem a Angle.two_pi in
  if r < 0. then r +. Angle.two_pi else r

(* The one coverage test: how the closed disk of radius [r] centered at
   (cx, cy) covers the circle of radius [cr] centered at (ccx, ccy).
   Inlined into both entries, so neither boxes a float. *)
let[@inline] classify ~ccx ~ccy ~cr ~cx ~cy ~r out =
  let dx = cx -. ccx and dy = cy -. ccy in
  let dd = sqrt ((dx *. dx) +. (dy *. dy)) in
  (* The [Closed] rule: the disk reaches [r + eps], read inline since
     this runs once per disk pair of the quadratic sweeps. Tangency
     within [eps] is touching: the arc branch, computed at the nominal
     radius, clamps it to a zero-length span towards the disk. *)
  let reach = r +. Closed.eps in
  if dd +. cr <= reach then cov_covered
  else if dd > reach +. cr || dd +. reach < cr then cov_disjoint
  else if dd < 1e-15 then (* concentric, neither contained: numeric guard *)
    cov_disjoint
  else begin
    (* Law of cosines in the triangle (circle center, disk center, boundary
       crossing): the covered span is centered on the direction towards the
       disk center with half-angle phi. Start/length are computed with
       exactly the float operations of [Angle.ivl (theta -. phi)
       (theta +. phi)], so the two entries stay bit-identical. The clamp
       to [-1, 1] is [Float.max (-1.) (Float.min 1. _)] written out (same
       result, NaN included). *)
    let cos_phi = ((dd *. dd) +. (cr *. cr) -. (r *. r)) /. (2. *. dd *. cr) in
    let cos_phi =
      if cos_phi > 1. then 1. else if cos_phi < -1. then -1. else cos_phi
    in
    let phi = acos cos_phi in
    let theta = atan2 dy dx in
    let start = norm (theta -. phi) in
    let len = norm (theta +. phi -. start) in
    Float.Array.set out 0 start;
    Float.Array.set out 1 len;
    Float.Array.set out 2 (norm (start +. len));
    cov_arc
  end

let coverage_into xs ys ~r i j out =
  classify ~ccx:(Fvec.get xs i) ~ccy:(Fvec.get ys i) ~cr:r ~cx:(Fvec.get xs j)
    ~cy:(Fvec.get ys j) ~r out

let coverage_by_disk c ~cx ~cy ~r =
  let out = Float.Array.create 3 in
  let code = classify ~ccx:c.cx ~ccy:c.cy ~cr:c.r ~cx ~cy ~r out in
  if code = cov_covered then Covered
  else if code = cov_disjoint then Disjoint
  else
    Arc { Angle.start = Float.Array.get out 0; len = Float.Array.get out 1 }

let intersections c1 c2 =
  let dx = c2.cx -. c1.cx and dy = c2.cy -. c1.cy in
  let d2 = (dx *. dx) +. (dy *. dy) in
  let d = sqrt d2 in
  if d < 1e-15 then []
  else if
    d > c1.r +. c2.r +. Closed.eps || d +. Closed.eps < Float.abs (c1.r -. c2.r)
  then []
  else
    (* Standard two-circle intersection: a = distance from c1 along the
       center line to the radical line, h = half chord length. *)
    let a = (d2 +. (c1.r *. c1.r) -. (c2.r *. c2.r)) /. (2. *. d) in
    let h2 = (c1.r *. c1.r) -. (a *. a) in
    let h = if h2 <= 0. then 0. else sqrt h2 in
    let mx = c1.cx +. (a *. dx /. d) and my = c1.cy +. (a *. dy /. d) in
    let ox = -.dy *. h /. d and oy = dx *. h /. d in
    if h = 0. then [ (mx, my) ]
    else [ (mx +. ox, my +. oy); (mx -. ox, my -. oy) ]
