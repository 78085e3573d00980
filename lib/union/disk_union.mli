(** Boundary of a union of equal-radius disks (one color class of Section
    4 of the paper).

    The paper computes these boundaries via power diagrams [Aur88] in
    O(n log n); we clip each circle against the other disks directly in
    O(n^2 log n) per class — same output, simpler machinery (see the
    substitution note in DESIGN.md). *)

type arc = {
  disk : int;  (** index into the input array of the supporting disk *)
  circle : Maxrs_geom.Circle.t;
  ivl : Maxrs_geom.Angle.ivl;  (** the angular span on that circle *)
}

val boundary_arcs : radius:float -> (float * float) array -> arc list
(** The boundary of the union of the closed disks of the given radius
    centered at the input points, as circular arcs. A disk is buried
    only by an earlier one, so of the disks whose centers lie within
    [Closed.eps] of each other, exactly coincident or not, the first
    keeps its boundary (otherwise mutually "covered" circles would erase
    each other's boundary). *)

val contains : radius:float -> (float * float) array -> float * float -> bool
(** Membership of a point in the union. *)

val arc_sample : arc -> float * float
(** The midpoint of an arc — a convenient boundary witness for tests. *)

(** {2 The union pass on flat columns}

    {!boundary_arcs} and {!Colored_depth}'s per-cell kernel both run it;
    once its scratch has grown it allocates nothing. *)

type pass
(** Scratch of the union pass. Not thread-safe: each solve owns one. *)

val pass : unit -> pass

val disk_arcs :
  pass ->
  Maxrs_geom.Fvec.t ->
  Maxrs_geom.Fvec.t ->
  r:float ->
  int array ->
  lo:int ->
  hi:int ->
  int ->
  int
(** [disk_arcs p xs ys ~r order ~lo ~hi k] is the number of arcs disk
    [order.(k)] contributes to the boundary of the union of the class
    [order.(lo .. hi - 1)], centers in [xs], [ys] and all of radius [r];
    the arcs themselves stay in [p] until its next use. A disk covered by
    one of [order.(lo .. k - 1)] is buried (count 0); one covered only by
    later disks ignores them. Requires [lo <= k < hi]. *)
