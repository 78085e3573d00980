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

type cursor
(** A resumable enumeration of the cells a ball meets, over scratch the
    caller owns: one cursor per grid serves any number of balls, and
    {!start} and {!next} allocate nothing. *)

val cursor : t -> cursor
(** A cursor over the cells of this grid (the grid's dimension must be
    at least 1). Not usable until {!start}. *)

val start : cursor -> center:Point.t -> radius:float -> unit
(** Begin enumerating the cells that {!iter_keys_intersecting_ball}
    visits for the ball at [center] with [radius], in the same order.
    The cursor keeps a reference to [center]: do not mutate it before
    the enumeration is over. *)

val next : cursor -> bool
(** Advance to the next cell; [false] once there is none. After [true],
    {!cursor_key} holds the cell's key. *)

val cursor_key : cursor -> key
(** The key {!next} stopped at: the cursor's scratch buffer, rewritten
    by the next {!next} — copy it before retaining it. *)

val keys_intersecting_ball : t -> Ball.t -> key list

module Tbl : Hashtbl.S with type key = key
(** Hash tables over cell keys. *)
