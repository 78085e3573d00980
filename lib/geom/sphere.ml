let direction rng d =
  (* Retry on the (measure-zero) all-zeros draw rather than divide by 0. *)
  let rec draw () =
    let v = Array.init d (fun _ -> Rng.gaussian rng) in
    let n = Point.norm v in
    if n < 1e-12 then draw () else Point.scale (1. /. n) v
  in
  draw ()

let sample_on rng ~center ~radius =
  assert (radius >= 0.);
  (* Low dimensions get direct parametrizations (this is the hot path of
     the Technique-1 sampling step); Muller's method covers the rest. *)
  match Point.dim center with
  | 1 ->
      let s = if Rng.bool rng then radius else -.radius in
      [| center.(0) +. s |]
  | 2 ->
      let theta = Rng.float rng (2. *. Float.pi) in
      [| center.(0) +. (radius *. cos theta); center.(1) +. (radius *. sin theta) |]
  | d ->
      let u = direction rng d in
      Point.add center (Point.scale radius u)

(* Bulk variant of [sample_on] writing row-major into a flat column:
   sample [si]'s coordinates land at [buf.(si*d + k)]. Draw order and
   float expressions are exactly [sample_on]'s, applied for ascending
   [si] — a caller that previously looped [sample_on] sees the same rng
   stream and the same coordinate bit patterns, minus the per-sample
   point allocation (the point of the exercise: the sample-space cell
   builder fills its position column directly). *)
let fill_on rng ~center ~radius (buf : floatarray) =
  assert (radius >= 0.);
  let d = Point.dim center in
  let m = Float.Array.length buf / d in
  assert (Float.Array.length buf = m * d);
  match d with
  | 1 ->
      let c0 = center.(0) in
      for si = 0 to m - 1 do
        let s = if Rng.bool rng then radius else -.radius in
        Float.Array.unsafe_set buf si (c0 +. s)
      done
  | 2 ->
      let c0 = center.(0) and c1 = center.(1) in
      for si = 0 to m - 1 do
        let theta = Rng.float rng (2. *. Float.pi) in
        Float.Array.unsafe_set buf (2 * si) (c0 +. (radius *. cos theta));
        Float.Array.unsafe_set buf ((2 * si) + 1) (c1 +. (radius *. sin theta))
      done
  | d ->
      for si = 0 to m - 1 do
        let u = direction rng d in
        for k = 0 to d - 1 do
          Float.Array.unsafe_set buf ((si * d) + k)
            (center.(k) +. (radius *. u.(k)))
        done
      done

let sample_in rng ~center ~radius =
  let d = Point.dim center in
  let u = direction rng d in
  let r = radius *. (Rng.float rng 1. ** (1. /. float_of_int d)) in
  Point.add center (Point.scale r u)
