(** The uniform grid [G_s(c)] of Section 2: cell side length [s], cell
    boundaries on the hyperplanes [x_i = c_i + k*s]. Cells are addressed by
    integer keys (the vector [k]). *)

type t = private { dim : int; side : float; origin : Point.t }

type key = int array

val make : side:float -> origin:Point.t -> t
(** Requires [side > 0]. *)

val key_of_point : t -> Point.t -> key
(** The cell containing the point (cells are half-open [ [ks, (k+1)s) ]
    per axis, so every point belongs to exactly one cell). *)

val cell_box : t -> key -> Box.t

val cell_center : t -> key -> Point.t

val cell_circumradius : t -> float
(** [side * sqrt dim / 2] — the radius of the circumsphere C(X) of a cell,
    on which Technique 1 samples its points. *)

val iter_keys_intersecting_ball : t -> Ball.t -> (key -> unit) -> unit
(** Enumerate the keys of all cells whose closed box meets the closed
    ball out to its {!Closed.reach}, so every cell holding a point that
    {!Ball.contains} accepts is visited. Cost is proportional to the
    bounding-box cell count,
    [(2r/s + 2)^d], with per-axis distance pruning. The key passed to the
    callback is a scratch buffer reused across calls — copy it before
    retaining it. *)

val iter_keys_intersecting_into :
  t ->
  lo:int array ->
  hi:int array ->
  key:int array ->
  center:Point.t ->
  radius:float ->
  (key -> unit) ->
  unit
(** {!iter_keys_intersecting_ball} with caller-provided odometer scratch
    ([lo], [hi], [key], each of length >= dim) and the ball passed as
    center/radius — zero allocation per call, for tight insert loops.
    The callback receives the [key] scratch buffer. *)

val keys_intersecting_ball : t -> Ball.t -> key list

module Tbl : Hashtbl.S with type key = key
(** Hash tables over cell keys. *)
