(** The "first algorithm" of Section 4.2 (Lemma 4.2): exact maximum
    colored depth of a set of colored equal-radius disks, computed from
    the per-color union boundaries.

    Implementation (see the substitution note in DESIGN.md): instead of a
    trapezoidal map [Mul91] over the union arcs we sweep each circle that
    contributes at least one union arc. A point of maximum colored depth
    lies on some color's union boundary, and every union arc lives on a
    swept circle, so the sweep attains the optimum. Candidate disks per
    circle come from a spatial hash of cell size 2r, so sweep cost scales
    with local density — this is what makes the enclosing second
    algorithm (Theorem 4.6) behave output-sensitively.

    The [stats] record exposes the event count (the paper's k of Lemma
    4.5) for the output-sensitivity experiment E6. *)

type stats = {
  union_arcs : int;  (** total arcs on all color-union boundaries *)
  circles_swept : int;
  events : int;  (** angular enter/exit events processed — the "k" term *)
}

type result = { x : float; y : float; depth : int; stats : stats }

val max_colored_depth :
  radius:float -> (float * float) array -> colors:int array -> result
(** Exact maximum colored depth. Requires a non-empty input. Runs the
    {!Cell} kernel. *)

val dense_colors : int array -> int array
(** Dense ids [0 .. k - 1] for the colors, numbered by first
    occurrence. *)

(** The per-cell kernel behind {!max_colored_depth}, on per-domain flat
    scratch: load a cell with {!Cell.push}, then {!Cell.solve} it. Once
    the scratch has grown to the cell, a solve allocates 0 words, and
    so do pushes of floats that are already boxed. *)
module Cell : sig
  type t

  val with_scratch : (t -> 'a) -> 'a
  (** [with_scratch f] lends [f] this domain's scratch, or fresh scratch
      while another solve on this domain (another thread) holds it. The
      scratch must not escape [f]. *)

  val clear : t -> unit
  val length : t -> int

  val push : t -> float -> float -> color:int -> raw:int -> unit
  (** Append a disk at (x, y). [color] is its dense id (see
      {!dense_colors}), [raw] the caller's color it stands for: the
      visit order, which picks the witness among equally deep circles,
      hashes raw colors. Raises [Invalid_argument] on a negative dense
      id. *)

  val solve : t -> radius:float -> int
  (** The maximum colored depth over the loaded disks of the given
      radius, [min_int] if no disk contributes a union arc. Leaves the
      disks loaded. *)

  val witness : t -> floatarray
  (** After {!solve}: slots 0 and 1 hold the witness (x, y), (0, 0)
      when no disk contributes. *)

  val events : t -> int
  (** After {!solve}: the sweep events it processed. *)
end
