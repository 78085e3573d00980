(** Exact 2-D rectangle MaxRS — the O(n log n) plane sweep of
    [IA83, NB95], the baseline the paper's batched lower bound (Theorem
    1.3) is measured against.

    In the dual, each weighted point becomes a [width x height] rectangle
    centered at it; the optimum placement center is a point of maximum
    depth in that set of rectangles. We sweep a vertical line across
    rectangle edges and keep the depth profile in a segment tree over
    compressed y-coordinates. Weights may be negative. *)

type placement = {
  x : float;  (** center of an optimal rectangle *)
  y : float;
  value : float;  (** total covered weight *)
}

val max_sum : width:float -> height:float -> (float * float * float) array -> placement
(** [max_sum ~width ~height pts] with [pts] an array of (x, y, weight).
    Rectangles are closed under the {!Maxrs_geom.Closed} rule, so the
    dual rectangles reach [Closed.eps] past the half-sides. The empty
    placement (value 0) is allowed, so [value >= 0]. Requires positive
    [width] and [height]. *)

val center_with_margin :
  width:float -> height:float -> (float * float * float) array -> float ->
  float -> float * float
(** [center_with_margin ~width ~height pts x0 y0]: a center found on dual
    edges, at the slack of the {!Maxrs_geom.Closed} rule where two
    roundings of one test can disagree, moved by
    {!Maxrs_geom.Closed.slab_center} on each axis to keep a margin over
    the points whose dual rectangles hold it ([(x0, y0)] when none
    does). *)

val max_sum_brute :
  width:float -> height:float -> (float * float * float) array -> placement
(** O(n^3) reference: candidate centers are all corners
    (xi ± reach, yj ± reach) of pairs of dual rectangles; the reported
    center is placed as {!max_sum} places it. *)
