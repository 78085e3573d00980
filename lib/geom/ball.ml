type t = { center : Point.t; radius : float }

let make center radius =
  assert (radius >= 0.);
  { center; radius }

let unit center = make center 1.
let dim b = Point.dim b.center
let contains b p = Closed.in_ball ~radius:b.radius (Point.dist2 p b.center)

(* Two balls meet iff one center lies in the other's ball grown by the
   first radius (the Minkowski sum), so the rule applies once. *)
let intersects_ball a b =
  Closed.in_ball ~radius:(a.radius +. b.radius) (Point.dist2 a.center b.center)

let intersects_box b box =
  Closed.in_ball ~radius:b.radius (Box.dist2_to_point box b.center)

let pp ppf b = Format.fprintf ppf "B(%a, %g)" Point.pp b.center b.radius
