(** Uniform sampling on spheres — Muller's method [Mul59], the primitive
    behind the "sampling step" of Technique 1 (Section 3 of the paper). *)

val sample_on : Rng.t -> center:Point.t -> radius:float -> Point.t
(** A point distributed uniformly on the (d-1)-sphere of the given center
    and radius: sample d independent gaussians, normalize, scale. *)

val fill_on : Rng.t -> center:Point.t -> radius:float -> floatarray -> unit
(** [fill_on rng ~center ~radius buf] fills [buf] with
    [Float.Array.length buf / dim] samples row-major (sample, axis),
    drawing and computing exactly as an ascending loop of {!sample_on}
    would — same rng stream, bit-identical coordinates — without
    allocating a point per sample. The buffer length must be a multiple
    of the dimension. *)

val sample_in : Rng.t -> center:Point.t -> radius:float -> Point.t
(** A point distributed uniformly in the closed ball (direction by Muller,
    radius by the [u^{1/d}] inverse-CDF trick). *)
