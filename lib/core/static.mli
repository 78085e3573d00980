(** Static MaxRS for d-balls — Theorem 1.2: a randomized (1/2 - eps)-
    approximation in O(eps^{-2d-2} n log n) time, avoiding the
    log^{Theta(d)} n blowup of sampling-based (1 - eps) schemes.

    The answer is the deepest sample of the {!Sample_space} that holds
    every ball (its [best]), bit for bit, found without building that
    space: each grid bounds every cell's depths by the total weight of
    the balls meeting it, and draws and scans only the cells whose bound
    can beat the best depth found so far (DESIGN.md §2.5). *)

type result = {
  center : Maxrs_geom.Point.t;  (** placement for the query ball *)
  value : float;  (** witnessed covered weight (achievable; w.h.p. at
                      least (1/2 - eps) * opt) *)
}

val solve :
  ?cfg:Config.t ->
  ?radius:float ->
  dim:int ->
  (Maxrs_geom.Point.t * float) array ->
  result option
(** [solve ~dim pts] with [pts] an array of (point, weight >= 0) pairs.
    [None] only when no circumsphere sample lands in any ball (tiny
    inputs); callers may fall back to placing the ball on any input
    point, which covers at least that point.

    Raises {!Maxrs_resilience.Guard.Error} on malformed input
    (non-positive/non-finite radius, [dim < 1], dimension mismatches,
    non-finite coordinates, negative or non-finite weights). *)

val solve_checked :
  ?cfg:Config.t ->
  ?radius:float ->
  dim:int ->
  (Maxrs_geom.Point.t * float) array ->
  (result option, Maxrs_resilience.Guard.error) Stdlib.result
(** {!solve} with the same validation reported as a structured error
    instead of an exception. *)

val solve_unchecked :
  ?cfg:Config.t ->
  ?radius:float ->
  dim:int ->
  (Maxrs_geom.Point.t * float) array ->
  result option
(** The validation-free path behind {!solve_checked}: identical
    computation, no input scan. For callers whose input is already
    validated or generated; behaviour on non-finite coordinates or
    negative weights is unspecified. The solve prunes every cell whose
    balls' total weight cannot beat the best depth found so far, which
    bounds the cell's depths only when every weight is [>= 0]: with a
    negative weight the answer may differ from the sample space's. *)

val solve_store :
  ?cfg:Config.t -> ?radius:float -> Maxrs_geom.Pstore.t -> result option
(** Columnar entry: {!solve_unchecked} directly over a weighted
    {!Maxrs_geom.Pstore} (dimension taken from the store). Bit-identical
    to the array path on equivalent input — the array entries are thin
    adapters over this core. Trusted input, like {!solve_unchecked}. *)

val solve_or_point :
  ?cfg:Config.t ->
  ?radius:float ->
  dim:int ->
  (Maxrs_geom.Point.t * float) array ->
  result
(** Like {!solve} but falls back to the heaviest input point (covering at
    least itself). Requires a non-empty input. *)
