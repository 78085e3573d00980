(** Exact MaxRS for axis-aligned d-boxes, any (small) d.

    The paper cites O(n log n) for d = 2 [IA83, NB95] and ~O(n^{d/2})
    for d >= 3 [Cha10]; this module provides the simple exact algorithm
    the paper's Section 7 calls the "trivial polynomial" route: in the
    dual, each point becomes a box of the query dimensions, and a point
    of maximum depth can be slid onto a "lower-left" corner structure —
    its k-th coordinate equals the k-th lower edge of some dual box. We
    recurse per dimension over candidate lower edges, solving the last
    dimension with the O(n log n) interval sweep, for O(n^{d-1} n log n)
    total. Practical for d <= 3 at moderate n and as ground truth for
    higher-dimensional tests. *)

type result = {
  point : Maxrs_geom.Point.t;  (** optimal placement center for the box *)
  value : float;
}

val max_sum : widths:float array -> (Maxrs_geom.Point.t * float) array -> result
(** [max_sum ~widths pts]: place a box with side lengths [widths]
    (closed under the {!Maxrs_geom.Closed} rule) to cover maximum
    weight. Requires positive widths, points of dimension
    [Array.length widths], non-negative weights, and a non-empty
    input. *)

val depth_at :
  widths:float array -> (Maxrs_geom.Point.t * float) array -> Maxrs_geom.Point.t -> float
(** Total weight of points covered by the box centered at the query. *)
