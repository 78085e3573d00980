(** Axis-aligned d-boxes [ [lo_1, hi_1] x ... x [lo_d, hi_d] ]. *)

type t = { lo : Point.t; hi : Point.t }

val make : Point.t -> Point.t -> t
(** [make lo hi]; requires [lo.(i) <= hi.(i)] for all [i]. *)

val of_center_half_extent : Point.t -> float -> t
(** The cube of side [2h] centered at the given point. *)

val dim : t -> int

val center : t -> Point.t

val circumradius : t -> float
(** Radius of the smallest ball centered at [center] covering the box
    (half the diagonal). For a cube of side [s] in [R^d] this is
    [s * sqrt d / 2]. *)

val contains : t -> Point.t -> bool
(** Closed containment under the {!Closed} rule: every coordinate within
    [Closed.eps] of [\[lo_i, hi_i\]]. *)

val corners : t -> Point.t list
(** All [2^d] corners. *)

val dist2_to_point : t -> Point.t -> float
(** Squared distance from a point to the closed box (0 if inside). *)

val intersects_box : t -> t -> bool
(** Whether the two closed boxes touch, within [Closed.eps] per axis. *)

val pp : Format.formatter -> t -> unit
