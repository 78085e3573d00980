let eps = 1e-9
let angle_eps = 1e-12
let reach r = r +. eps

let ball_r2 r =
  let r = reach r in
  r *. r

let unit_r2 = ball_r2 1.
let in_ball ~radius d2 = d2 <= ball_r2 radius

let slab_center ~half ~lo ~hi x =
  if hi -. lo <= 2. *. half then
    Float.min (lo +. half) (Float.max (hi -. half) x)
  else (lo +. hi) /. 2.
