(* One direction's [d] gaussians (Muller's method) into [buf] from
   [at], drawn again while their norm is too small to divide by: the
   all-zeros draw, of measure zero, has no direction. With [buf] empty
   they are drawn and dropped, which moves [rng] exactly as far. *)
let rec draw rng d buf ~at =
  let s = ref 0. in
  for k = 0 to d - 1 do
    let g = Rng.gaussian rng in
    if Float.Array.length buf > 0 then Float.Array.unsafe_set buf (at + k) g;
    s := !s +. (g *. g)
  done;
  let n = sqrt !s in
  if n < 1e-12 then draw rng d buf ~at

(* The norm of the [d] values at [at], summed in ascending axis order
   as [Point.norm] sums them. *)
let norm_at buf ~at d =
  let s = ref 0. in
  for k = 0 to d - 1 do
    let g = Float.Array.unsafe_get buf (at + k) in
    s := !s +. (g *. g)
  done;
  sqrt !s

let nowhere = Float.Array.create 0

let direction rng d =
  let v = Float.Array.create d in
  draw rng d v ~at:0;
  let inv = 1. /. norm_at v ~at:0 d in
  Array.init d (fun k -> inv *. Float.Array.get v k)

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
      (* The gaussians are drawn into the sample's slots and scaled
         there, by the exact expressions [Point.scale] and [Point.add]
         evaluate. *)
      for si = 0 to m - 1 do
        let at = pos + (si * d) in
        draw rng d buf ~at;
        let inv = 1. /. norm_at buf ~at d in
        for k = 0 to d - 1 do
          let u = inv *. Float.Array.unsafe_get buf (at + k) in
          Float.Array.unsafe_set buf (at + k) (center.(k) +. (radius *. u))
        done
      done

(* At d <= 2 a sample is one draw of the stream (a sign, an angle). *)
let skip_on rng ~dim ~samples:m =
  assert (dim >= 1 && m >= 0);
  if dim <= 2 then Rng.advance rng m
  else
    for _ = 1 to m do
      draw rng dim nowhere ~at:0
    done

let sample_in rng ~center ~radius =
  let d = Point.dim center in
  let u = direction rng d in
  let r = radius *. (Rng.float rng 1. ** (1. /. float_of_int d)) in
  Point.add center (Point.scale r u)
