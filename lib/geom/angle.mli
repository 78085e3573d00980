(** Angles and angular intervals on a circle.

    Angular intervals are the working currency of every circular sweep in
    this repository (exact disk MaxRS, union-of-disks boundaries, the
    output-sensitive colored algorithm). An interval is a counter-clockwise
    span [{start; len}] with [0 <= start < 2pi] and [0 <= len <= 2pi]; it
    may wrap past [2pi]. Every comparison here allows the one angular
    slack {!Closed.angle_eps}. *)

val two_pi : float

val norm : float -> float
(** Normalize an angle into [\[0, 2pi)]. *)

type ivl = { start : float; len : float }

val ivl : float -> float -> ivl
(** [ivl a b] is the ccw span from angle [a] to angle [b] (normalized); its
    length is [norm (b - a)] — so [ivl a a] is empty, use [full] for the
    whole circle. *)

val full : ivl

val is_full : ivl -> bool
(** Whether the span misses the full turn by at most the angular slack. *)

val mem : ivl -> float -> bool
(** Closed membership of a (normalized) angle in the span. *)

val midpoint : ivl -> float

val endpoints : ivl -> float * float
(** [(start, end)] with [end = norm (start + len)]. *)

val total_length : ivl list -> float
(** Measure of the union of the spans (overlaps counted once). *)

val complement : ivl list -> ivl list
(** The uncovered portion of the circle, as disjoint non-wrapping spans
    sorted by start (a span abutting [2pi] and one starting at [0] are
    merged into a single wrapping span). Returns [[full]] for an empty
    input and [[]] if the input covers the circle. *)

val covers_circle : ivl list -> bool
(** Whether the union of the spans misses the full turn by at most the
    angular slack. *)
