(** Immutable range maximum-sum segment query (RMSQ) index.

    Compiled once from the prefix-sum column of a sorted 1-D weighted
    point set ({!Maxrs_sweep.Interval1d.batched}), the index answers
    {e arbitrary-range} max-sum segment queries in O(log n) without
    touching the original weights again — the read-tier structure of
    Gawrychowski–Nicholson's succinct RMSQ encodings, here realised as
    a candidate-segment tree over prefix-sum {e indices}. Pătrașcu–
    Demaine's Ω(lg n) cell-probe bound for dynamic-style range queries
    says O(log n) is the right target for a pointerless layout.

    Memory layout: four [int32] Bigarray columns in Eytzinger (implicit
    BFS heap) order — node [i]'s children are [2i] and [2i+1], the hot
    path of a query is index arithmetic on flat, GC-invisible storage
    (the same discipline as {!Maxrs_geom.Fvec}/[Kern], DESIGN.md §10).
    Each node stores {e prefix-sum indices}, not accumulated floats:
    every answer's value is one subtraction [P(r) -. P(l)] of two
    entries of the original prefix column, so an indexed answer is
    bit-identical to any reference that maximises the same difference —
    float addition order can never diverge between index and sweep.

    The index is immutable after {!build}: readers on any domain may
    share it freely (epoch swapping lives in {!Epoch}). *)

module Interval1d := Maxrs_sweep.Interval1d

type t

type seg = {
  s_lo : int;  (** first covered element (index into the sorted order) *)
  s_hi : int;  (** last covered element, inclusive; [s_hi >= s_lo] *)
  s_sum : float;  (** [P(s_hi+1) -. P(s_lo)], the exact segment sum *)
}

(** {1 Compilation} *)

val of_batched : ?lens:float array -> Interval1d.batched -> t
(** Compile from already-sorted columns: O(n) tree build (plus one O(n)
    sweep per compiled length). The columns are shared, not copied. *)

val build : ?lens:float array -> (float * float) array -> t
(** [build ?lens pts] sorts [(coordinate, weight)] pairs exactly like
    {!Interval1d.preprocess} (same kernels, same tie order — the
    prefix column is bit-identical) and compiles the index. Each
    [lens] entry additionally compiles the fixed-length Interval1d
    question for that length: the answer is materialised at build time
    by the reference sweep, so serving it later is O(1) and trivially
    bit-identical to {!Interval1d.max_sum}. *)

val build_checked :
  ?lens:float array ->
  (float * float) array ->
  (t, Maxrs_resilience.Guard.error) result
(** Like {!build} but rejects non-finite coordinates/weights and
    non-finite or negative lengths with a structured error (NaN never
    enters the index — comparisons inside assume total order). *)

val project_state : Maxrs.Dynamic.State.t -> (float * float) array
(** Axis-0 projection of a dynamic state's balls, in user units
    ([coordinate = center.(0) *. radius]) — what {!of_state}
    compiles. *)

val of_state : ?lens:float array -> Maxrs.Dynamic.State.t -> t
(** Compile from a durable snapshot's full state: the balls are
    projected onto axis 0 (coordinate [= center.(0) *. radius], in
    user units) with their weights. This is the read tier of the
    log-structured design: writes keep flowing to the WAL-backed
    dynamic store, reads hit an index compiled from its snapshots. *)

(** {1 Queries} *)

val n : t -> int
(** Number of indexed points. *)

val top_segment : t -> seg option
(** Best non-empty max-sum segment over the whole point set — the root
    of the candidate tree, O(1). [None] iff the index is empty. *)

val max_sum_in_range : t -> lo:int -> hi:int -> seg option
(** Best non-empty segment of the sorted order confined to element
    indices [[lo..hi]], inclusive; O(log n). [None] when the clamped
    range is empty. Among segments whose sums round to the same value
    the answer has the largest prefix sum at its right end, then the
    smallest at its left end, then the smallest [s_lo], then the
    smallest [s_hi] (a strict total order, so the answer is independent
    of the tree decomposition). With exact sums (integer weights) this
    is the smallest [s_lo], then the smallest [s_hi]. *)

val max_sum_in_coords : t -> lo:float -> hi:float -> seg option
(** Same, over the points whose {e coordinate} lies in [[lo, hi]]
    (closed); two binary searches plus one tree query, O(log n). *)

val interval : t -> len:float -> Interval1d.placement option
(** The fixed-length Interval1d question for a length compiled at
    build time ([Some] the materialised sweep answer, O(lens)), [None]
    for any other length — the caller falls back to the sweep. *)

val interval_sweep : t -> len:float -> Interval1d.placement
(** The reference O(n) sweep over the index's own columns; what
    {!interval} materialised at build time. *)

val lens : t -> float array
(** The compiled lengths, in build order. *)

val coord : t -> int -> float
(** Coordinate of sorted element [i]. *)

val weight : t -> int -> float

(** {1 Reference and measurement} *)

val scan_coords :
  Interval1d.batched -> lo:float -> hi:float -> seg option
(** Index-free coordinate-range reference over sorted columns — a
    binary search plus one O(n) {!range_ref}-style scan over the
    prefix column, no tree built. Bit-identical to
    {!max_sum_in_coords} over an index compiled from the same
    columns; the server's cold-path fallback and the bench's sweep
    baseline for the range family. *)

val range_ref : t -> lo:int -> hi:int -> seg option
(** O(hi - lo) reference scan maximising the same prefix-sum
    difference under the same total order — returns the exact same
    segment (same indices, bit-identical sum) as
    {!max_sum_in_range}. The differential-test oracle, and the
    serving fallback when no index epoch is live yet. *)

val size_bytes : t -> int
(** Bytes held by the index: tree columns + shared point columns +
    compiled-length table. *)

val bits_per_point : t -> float
(** [8 * size_bytes / n] — the measured succinctness figure reported
    by bench E17. *)
