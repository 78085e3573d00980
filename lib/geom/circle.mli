(** Circles in the plane and their interaction with disks — the geometric
    kernel of the angular sweeps (exact disk MaxRS [CL86]-style, union
    boundaries of Section 4). *)

type t = { cx : float; cy : float; r : float }

val make : cx:float -> cy:float -> r:float -> t

val point_at : t -> float -> float * float
(** The point at the given angle (ccw from the positive x-axis). *)

val angle_of : t -> float -> float -> float
(** The (normalized) angle of the given point as seen from the center. *)

(** How a closed disk covers this circle. *)
type coverage =
  | Disjoint  (** no point of the circle lies in the disk *)
  | Covered  (** the whole circle lies in the disk *)
  | Arc of Angle.ivl  (** exactly this angular span lies in the disk *)

val coverage_by_disk : t -> cx:float -> cy:float -> r:float -> coverage
(** [coverage_by_disk c ~cx ~cy ~r] describes the set
    [{theta | point_at c theta inside the closed disk (cx,cy,r)}]. The
    [Covered]/[Disjoint] tests follow the {!Closed} rule, so a disk
    tangent within [Closed.eps] touches the circle in a zero-length
    [Arc]; arc bounds are computed at the nominal radius. *)

(** Allocation-free variant for the sweep hot loops, where every circle
    and disk has one radius and the centers sit in the caller's flat
    columns: the classification comes back as an int code and the arc
    lands in a caller-provided scratch buffer. It takes no float read
    from a column as an argument, so a call from another module boxes
    nothing and allocates 0 words. Bit-identical to
    {!coverage_by_disk}. *)

val cov_disjoint : int
val cov_covered : int
val cov_arc : int

val coverage_into :
  Fvec.t -> Fvec.t -> r:float -> int -> int -> floatarray -> int
(** [coverage_into xs ys ~r i j out] describes how the closed disk of
    radius [r] centered at [(xs.(j), ys.(j))] covers the circle of radius
    [r] centered at [(xs.(i), ys.(i))]. It returns {!cov_disjoint},
    {!cov_covered} or {!cov_arc}; on {!cov_arc} it writes the arc's
    normalized start angle to [out.(0)], its length to [out.(1)] (the
    fields of the [Angle.ivl] that {!coverage_by_disk} would have
    returned) and its normalized end angle, the second of
    {!Angle.endpoints}, to [out.(2)]. [out] must have at least 3 slots. *)

val intersections : t -> t -> (float * float) list
(** The 0, 1 or 2 intersection points of the two circles. Circles
    tangent within [Closed.eps] meet in one point on the center line.
    Concentric or (near-)identical circles yield []. *)
