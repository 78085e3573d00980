(** Uniform sampling on spheres — Muller's method [Mul59], the primitive
    behind the "sampling step" of Technique 1 (Section 3 of the paper). *)

val sample_on : Rng.t -> center:Point.t -> radius:float -> Point.t
(** A point distributed uniformly on the (d-1)-sphere of the given center
    and radius: sample d independent gaussians, normalize, scale. *)

val fill_on :
  Rng.t ->
  center:Point.t ->
  radius:float ->
  pos:int ->
  samples:int ->
  floatarray ->
  unit
(** [fill_on rng ~center ~radius ~pos ~samples buf] writes [samples]
    samples row-major (sample, axis) into [buf] from index [pos] on,
    drawing and computing exactly as an ascending loop of {!sample_on}
    would — same rng stream, bit-identical coordinates — without
    allocating a point per sample. The [samples * dim] slots from [pos]
    must lie inside [buf]. *)

val sample_in : Rng.t -> center:Point.t -> radius:float -> Point.t
(** A point distributed uniformly in the closed ball (direction by Muller,
    radius by the [u^{1/d}] inverse-CDF trick). *)
