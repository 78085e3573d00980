(** Exact colored rectangle MaxRS in the plane — the problem of
    [ZGH+22] cited in Section 1.3: place a [width x height] axis-aligned
    rectangle to cover the maximum number of distinctly colored points.

    O(n^2 log n) algorithm: in the dual (boxes reaching
    {!Maxrs_geom.Closed.reach} of the half-sides), a maximum-depth point
    can be slid left until some dual box's left edge binds, giving n
    candidate x-coordinates; for each, the active points' y-extents with
    colors form a colored 1-D stabbing instance ({!Colored_interval1d}).
    ([ZGH+22] achieve O(n log n) with a specialised sweep; we keep the
    simpler quadratic exact algorithm as baseline and ground truth —
    see DESIGN.md.) *)

type result = { x : float; y : float; value : int }

val max_colored :
  width:float -> height:float -> (float * float) array -> colors:int array -> result
(** Requires positive sides and a non-empty input. *)

val colored_depth_at :
  width:float -> height:float -> (float * float) array -> colors:int array ->
  float -> float -> int
(** Distinct colors among points covered by the rectangle centered at
    the query. *)
