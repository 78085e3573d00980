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

(** Allocation-free variant for the sweep hot loops: the classification
    comes back as an int code and arc bounds land in a caller-provided
    2-slot scratch buffer. Bit-identical to {!coverage_by_disk}. *)

val cov_disjoint : int
val cov_covered : int
val cov_arc : int

val coverage_into : t -> cx:float -> cy:float -> r:float -> floatarray -> int
(** [coverage_into c ~cx ~cy ~r out] returns {!cov_disjoint},
    {!cov_covered} or {!cov_arc}; on {!cov_arc} it writes the arc's
    normalized start angle to [out.(0)] and its length to [out.(1)]
    (the fields of the [Angle.ivl] that {!coverage_by_disk} would have
    returned). [out] must have at least 2 slots. *)

val intersections : t -> t -> (float * float) list
(** The 0, 1 or 2 intersection points of the two circles. Circles
    tangent within [Closed.eps] meet in one point on the center line.
    Concentric or (near-)identical circles yield []. *)
