(** The library's one boundary rule (DESIGN.md §14).

    Ranges are closed, with one absolute slack [eps] on distances, in
    the caller's units: a ball of radius [r] holds [p] iff
    [|p - c|^2 <= (r + eps)^2]; a box of half-widths [h] iff
    [|p_k - c_k| <= h_k + eps] on every axis; Δ-nearness is the ball
    rule; a disk and a circle whose centers are [d] apart touch iff
    [d <= r + r' + eps] (and [d + r + eps >= r']), so tangency within
    [eps] is touching. Pruning and candidate steps ahead of a point test
    use the same {!reach}, so none of them rules out a placement that
    the solver's own scoring or [Verify] accepts. Angles carry one slack
    of their own, {!angle_eps}. *)

val eps : float
(** The absolute slack on distances, [1e-9]. *)

val angle_eps : float
(** The angular slack, [1e-12] radians. *)

val reach : float -> float
(** [reach r = r + eps]: how far a closed range of radius or half-width
    [r] extends. *)

val ball_r2 : float -> float
(** [(reach r)^2], the squared-distance bound of the closed ball of
    radius [r]. Hot loops take it once and compare against it. *)

val unit_r2 : float
(** [ball_r2 1.], the unit balls' bound. *)

val in_ball : radius:float -> float -> bool
(** [in_ball ~radius d2]: whether a point at squared distance [d2] from
    the center lies in the closed ball. *)

val slab_center : half:float -> lo:float -> hi:float -> float -> float
(** [slab_center ~half ~lo ~hi x] moves a center [x] found at the slack
    (a dual edge, where two roundings of one test can disagree) to one
    whose slab of half-width [half] holds [lo <= hi] with a margin: the
    nearest center whose nominal edges hold both, when
    [hi - lo <= 2 * half]; the midpoint otherwise. Requires
    [hi - lo <= 2 * reach half]. *)
