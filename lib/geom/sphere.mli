(** Uniform sampling on spheres — Muller's method [Mul59], the primitive
    behind the "sampling step" of Technique 1 (Section 3 of the paper). *)

val fill_on :
  Rng.t ->
  center:Point.t ->
  radius:float ->
  pos:int ->
  samples:int ->
  floatarray ->
  unit
(** [fill_on rng ~center ~radius ~pos ~samples buf] writes [samples]
    points distributed uniformly on the (d-1)-sphere of the given center
    and radius into [buf], row-major (sample, axis) from index [pos] on:
    a sign at d = 1, an angle at d = 2, and above that d independent
    gaussians, normalized and scaled. The draws are sequential, so
    [samples = m] at [pos] writes exactly what m one-sample calls at
    [pos], [pos + d], ... would from the same rng state. The
    [samples * dim] slots from [pos] must lie inside [buf]; no other slot
    is written. *)

val skip_on : Rng.t -> dim:int -> samples:int -> unit
(** [skip_on rng ~dim ~samples] leaves [rng] exactly where {!fill_on}
    with that many samples on a [dim]-dimensional center would, and
    writes nothing: [samples] steps of the stream at [dim <= 2], in
    O(1); above that the gaussians and the zero-norm retries are drawn
    again, without a point or an array built. *)

val sample_in : Rng.t -> center:Point.t -> radius:float -> Point.t
(** A point distributed uniformly in the closed ball (direction by Muller,
    radius by the [u^{1/d}] inverse-CDF trick). *)
