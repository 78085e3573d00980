(** Monomorphic, allocation-free sort/select/partition kernels.

    The solvers' hot loops sort three kinds of data: permutation index
    arrays keyed by a coordinate column (kd-tree builds), parallel
    (angle, weight) event buffers (circular-arc sweeps) and parallel
    (angle, payload) buffers with integer payloads (colored sweeps).
    [Array.sort] with a comparator closure allocates the closure and
    boxes every comparison; the kernels here move machine ints and
    unboxed floats only and allocate nothing in steady state.

    Columns are flat {!Fvec.t} Bigarrays. Two strategies back the tandem
    sorts: a hand-monomorphised introsort (median-of-three quicksort,
    insertion sort below 16 elements, heapsort at the depth limit), and
    — above a size threshold — a byte-wise LSD radix sort on the
    monotone-mapped float bit pattern with per-domain scratch lent to
    one sort at a time ({!Lend}). Both produce identical output: an
    element is exactly its (key, payload) pair, so sorting by the
    composite order reproduces the comparison sort's arrays bit for
    bit.

    Keys are assumed non-NaN (every public solver entry rejects
    non-finite input up front); all kernels are deterministic — the same
    input always produces the same output, which the bit-identity
    contract of the parallel layer relies on. *)

val sort_idx : Fvec.t -> int array -> unit
(** [sort_idx key idx] sorts the whole of [idx] in place so that
    [key.(idx.(0)) <= key.(idx.(1)) <= ...]. Ties keep a deterministic
    (but unspecified) order. *)

val sort_idx_range : Fvec.t -> int array -> lo:int -> hi:int -> unit
(** [sort_idx_range key idx ~lo ~hi] sorts the inclusive slice
    [idx.(lo..hi)] by [key]. *)

val select_idx : Fvec.t -> int array -> lo:int -> hi:int -> k:int -> unit
(** Hoare quickselect on the inclusive slice [idx.(lo..hi)]: afterwards
    [idx.(k)] holds the element of rank [k - lo] within the slice, every
    index left of [k] has a key [<= key.(idx.(k))] and every index right
    of it a key [>= key.(idx.(k))]. O(hi - lo) expected, allocation
    free. Requires [lo <= k <= hi]. *)

val sort_ff : Fvec.t -> Fvec.t -> int -> unit
(** [sort_ff key payload n] sorts the first [n] slots of the parallel
    arrays in tandem: keys ascending, ties by payload {e descending}
    (the arc-sweep convention — additions carry positive weight and
    must precede removals at the same angle). Dispatches to
    {!radix_ff} at or above {!radix_threshold} elements, else
    {!intro_ff}. *)

val sort_fi : Fvec.t -> int array -> int -> unit
(** [sort_fi key payload n] sorts the first [n] slots in tandem: keys
    ascending, ties by integer payload {e ascending}. Dispatches like
    {!sort_ff}. *)

val order : Fvec.t -> int -> int array -> unit
(** [order key n perm] writes to [perm.(0 .. n-1)] the stable ascending
    order of [key.(0 .. n-1)]: keys ascending, equal keys by ascending
    index — the payload {!intro_fi} leaves when the payload starts as
    the identity. [key] is left as it is. At or above
    {!radix_threshold} it is a key-only LSD radix order (11-bit digits,
    constant digits skipped); below, the introsort on a copy. Raises
    [Invalid_argument] when [n] exceeds either array. *)

(** {2 Direct strategy entries}

    The two implementations behind [sort_ff]/[sort_fi], exposed so the
    test suite can check them against each other at any size. Same
    ordering contract as the dispatchers. *)

val radix_threshold : int
(** Sizes at or above this use the radix path. *)

val intro_ff : Fvec.t -> Fvec.t -> int -> unit
val intro_fi : Fvec.t -> int array -> int -> unit

val radix_ff : Fvec.t -> Fvec.t -> int -> unit
(** LSD radix sort over the monotone float-bit mapping; -0.0 is
    canonicalized to +0.0 before mapping so zeros compare equal, as
    under [<]. Runs on lent per-domain scratch ({!Lend}), so it is safe
    to call concurrently from distinct domains and from the threads of
    one domain. *)

val radix_fi : Fvec.t -> int array -> int -> unit

(** Growable scratch buffers for event queues and bucket lists: amortised
    O(1) append, never shrink, reusable across sweeps so steady-state
    operation allocates nothing. Not thread-safe — lend them ({!Lend}). *)

module Fbuf : sig
  type t

  val create : int -> t
  val clear : t -> unit
  val length : t -> int

  val reserve : t -> int
  (** Append one slot, growing the store if needed, and return its
      index; the caller writes it with [Fvec.unsafe_set (data b) k x].
      This is the float buffer's append: a float argument to a function
      of another module would be boxed, the store through the {!Fvec}
      external is not, so an append allocates nothing once grown. *)

  val get : t -> int -> float
  val data : t -> Fvec.t
  (** The backing store; valid up to [length]. Invalidated by
      [reserve]. *)
end

module Ibuf : sig
  type t

  val create : int -> t
  val clear : t -> unit
  val length : t -> int
  val push : t -> int -> unit
  val get : t -> int -> int
  val data : t -> int array
  (** The backing store; valid up to [length]. Invalidated by [push]. *)
end
