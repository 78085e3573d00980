(** Closed euclidean d-balls. *)

type t = { center : Point.t; radius : float }

val make : Point.t -> float -> t
(** [make c r] is the closed ball of center [c] and radius [r >= 0]. *)

val unit : Point.t -> t
(** Unit-radius ball (the dual objects of Sections 3–4 of the paper). *)

val dim : t -> int

val contains : t -> Point.t -> bool
(** Closed containment under the {!Closed} rule:
    [dist p center <= radius + Closed.eps]. *)

val intersects_ball : t -> t -> bool
(** Whether the two closed balls touch: centers at most
    [ra + rb + Closed.eps] apart. *)

val intersects_box : t -> Box.t -> bool
(** Whether the closed ball reaches the closed box. *)

val pp : Format.formatter -> t -> unit
