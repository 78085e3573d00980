let direction rng d =
  (* Retry on the (measure-zero) all-zeros draw rather than divide by 0. *)
  let rec draw () =
    let v = Array.init d (fun _ -> Rng.gaussian rng) in
    let n = Point.norm v in
    if n < 1e-12 then draw () else Point.scale (1. /. n) v
  in
  draw ()

(* Low dimensions get direct parametrizations (this is the hot path of
   the Technique-1 sampling step); Muller's method covers the rest.
   Sample [si]'s coordinates land at [buf.(pos + si*d + k)], drawn for
   ascending [si] with no point allocated per sample: the sample space
   draws a cell's positions straight into its row of the page's
   position column. *)
let fill_on rng ~center ~radius ~pos ~samples:m (buf : floatarray) =
  assert (radius >= 0.);
  let d = Point.dim center in
  assert (pos >= 0 && m >= 0 && pos + (m * d) <= Float.Array.length buf);
  match d with
  | 1 ->
      let c0 = center.(0) in
      for si = 0 to m - 1 do
        let s = if Rng.bool rng then radius else -.radius in
        Float.Array.unsafe_set buf (pos + si) (c0 +. s)
      done
  | 2 ->
      (* The m angles are drawn into the x slots in one call, then
         replaced by the point in place: the same draws in the same
         order as one [Rng.float] per sample, with no float boxed. *)
      let c0 = center.(0) and c1 = center.(1) in
      Rng.fill_float rng Angle.two_pi buf ~pos ~stride:2 ~count:m;
      for si = 0 to m - 1 do
        let p = pos + (2 * si) in
        let theta = Float.Array.unsafe_get buf p in
        Float.Array.unsafe_set buf p (c0 +. (radius *. cos theta));
        Float.Array.unsafe_set buf (p + 1) (c1 +. (radius *. sin theta))
      done
  | d ->
      for si = 0 to m - 1 do
        let u = direction rng d in
        for k = 0 to d - 1 do
          Float.Array.unsafe_set buf
            (pos + (si * d) + k)
            (center.(k) +. (radius *. u.(k)))
        done
      done

let sample_in rng ~center ~radius =
  let d = Point.dim center in
  let u = direction rng d in
  let r = radius *. (Rng.float rng 1. ** (1. /. float_of_int d)) in
  Point.add center (Point.scale r u)
