(** The Technique-1 machinery of Section 3: a collection of shifted grids
    (Lemma 2.1 with s = 2eps/sqrt(d), Delta = eps^2) where every non-empty
    cell carries Theta(eps^-2 log n) points sampled uniformly from the
    cell's circumsphere (radius eps). The structure maintains, for every
    sample point, a depth value under ball insertions and deletions.

    Invariant: a cell is materialized iff at least one live ball
    intersects it (a reference count tracks this), so the cell created at
    a ball's insertion has seen every live ball that intersects it — the
    maintained depth of a sample counts exactly the live balls that both
    (a) intersect the sample's cell and (b) contain the sample point.
    This may undercount the true depth at the sample (a ball can contain
    a circumsphere point without touching the cell box), which is safe:
    maintained depth is always an achievable depth, and the analysis
    (Lemmas 3.1-3.3) only needs the balls covering the optimum, all of
    which intersect the optimum's cell.

    Each cell caches its max-depth sample (refreshed for free during the
    per-update sample scan); the dynamic structure indexes cells, not
    samples, in a {!Cell_heap}.

    Parallel construction: every grid of the shifted collection owns
    disjoint state — its own hash table, its own rng stream (derived
    with [Rng.split_at] keyed by the grid index, so a grid's samples
    depend only on the operations applied to that grid) and its own
    id/cell counters. The [*_in_grid] operations therefore commute
    across distinct grids and may run on different domains
    concurrently, with no locks, producing bit-identical state for any
    domain count. Hooks must not be registered while building in
    parallel (static solvers never register one). *)

type sample = {
  id : int;
  pos : Maxrs_geom.Point.t;
  mutable depth : float;
  mutable flag : int;  (** colored MaxRS: last color counted; -1 initially *)
}

type cell

type t

val create : dim:int -> cfg:Config.t -> expected_n:int -> t
(** Build the (empty) grid collection; [expected_n] sets the per-cell
    sample count for this epoch. *)

val dim : t -> int
val samples_per_cell : t -> int
val grid_count : t -> int
val cell_count : t -> int
val sample_count : t -> int

val cell_max : cell -> float
(** Cached maximum sample depth of the cell ([neg_infinity] once the cell
    has been dropped). *)

val cell_max_column : cell -> floatarray
(** A column whose last slot holds {!cell_max} (the cell's depth column:
    one slot per sample, then the cached max). Read-only; it lets
    another module read the max without the float being boxed on the
    way. *)

val cell_best : t -> cell -> sample
(** The first sample attaining {!cell_max}. *)

val cell_uid : cell -> int
(** A stable unique identifier (the first sample's id, the cell's base:
    its samples' ids are [base + si * grid_count]): a deterministic
    function of the per-grid operation history, so it survives
    {!state}/{!restore} round trips. Used as a total-order tie-breaking
    key by the dynamic structure's heap. *)

val cell_slot : cell -> int
val set_cell_slot : cell -> int -> unit
(** The cell's slot in the {!Cell_heap} that holds it, [-1] when none
    does (the heap's own bookkeeping; fresh and restored cells start at
    [-1]). *)

val grid_of_cell : t -> cell -> int
(** Index of the grid the cell belongs to (recovered from its uid) —
    lets a sharded owner route a changed cell to the heap of the shard
    owning its grid. *)

val on_cell_change : t -> (cell -> unit) -> unit
(** Register a hook invoked whenever a cell's cached max or argmax
    changes, and once more when the cell is dropped (its max is then
    [neg_infinity]). *)

val insert : t -> center:Maxrs_geom.Point.t -> weight:float -> unit
(** Insert a unit ball: materialize missing cells (sampling their
    circumspheres), bump cell refcounts, add [weight] to the depth of
    every sample of an intersected cell that lies inside the ball. *)

val insert_in_grid :
  t -> grid:int -> center:Maxrs_geom.Point.t -> weight:float -> unit
(** {!insert} restricted to one grid of the shifted collection; calls
    for distinct grids touch disjoint state and may run concurrently.
    [insert t] is equivalent to [insert_in_grid t ~grid:gi] for every
    [gi]. *)

val touch_colored_in_grid :
  t -> grid:int -> center:Maxrs_geom.Point.t -> color:int -> unit
(** Colored variant of {!insert_in_grid} (Section 3.2): for every
    sample of an intersected cell lying inside the ball, if
    [flag <> color] set the flag and increment the depth by 1. Balls
    must be fed grouped by color. Also maintains refcounts and
    materialization like {!insert_in_grid}, with the same
    disjoint-state contract. *)

val delete : t -> center:Maxrs_geom.Point.t -> weight:float -> unit
(** Reverse of {!insert}; drops cells whose refcount reaches zero. *)

val delete_in_grid :
  t -> grid:int -> center:Maxrs_geom.Point.t -> weight:float -> unit
(** {!delete} restricted to one grid (same disjoint-state contract as
    {!insert_in_grid}). *)

val insert_with : t -> center:Maxrs_geom.Point.t -> f:(sample -> float) -> unit
(** Generic insertion: bump refcounts of the cells intersected by the
    unit ball at [center] and add [f sample] to the depth of every
    sample of those cells lying inside the ball (a return of 0 leaves
    the sample untouched). Lets callers maintain custom depth notions
    (e.g. the streaming colored monitor's incidence sets). *)

val best : t -> sample option
(** Linear scan over cells for a sample of maximum depth (static
    algorithms). *)

val iter_samples : t -> (sample -> unit) -> unit
val iter_live_cells : t -> (cell -> unit) -> unit

val validate : t -> live:Maxrs_geom.Point.t list -> bool
(** Test support: given the centers of the currently live balls, check
    the structural invariants — the materialized cells are exactly the
    cells intersected by a live ball, each with the correct reference
    count, and every cached cell max and argmax is exactly its samples'
    first maximum. *)

(** Exact serializable state (durability layer), in flat columns. The
    capture is canonical — cells in ascending key order, every mutable
    float copied bit-for-bit — so behaviourally identical structures
    produce structurally equal states. Per grid, cell [i]'s key is
    [keys.(i * dim) .. keys.(i * dim + dim - 1)], its per-cell fields
    are slot [i] of [nballs]/[stamps]/[bases], and its samples are slots
    [i * samples_per_cell ..] of [depth] ([pos] holds [dim] coordinates
    per sample).

    Nothing derivable is stored: sample ids follow from [bases], each
    cell's max and argmax are its depths' first maximum, and [pos] is a
    function of the cell's key and stamp, which {!redraw} evaluates. *)
module State : sig
  type stamps = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

  type grid = {
    rng : int64;  (** the grid's rng stream state *)
    next_id : int;  (** the grid's sample-id counter *)
    keys : int array;  (** [cells * dim] cell keys, ascending *)
    nballs : int array;  (** per cell: live balls intersecting it *)
    stamps : stamps;
        (** per cell: the grid's rng state just before the cell's
            positions were drawn *)
    bases : int array;  (** per cell: its first sample's id *)
    pos : floatarray;  (** [cells * samples_per_cell * dim] positions *)
    depth : floatarray;  (** per sample *)
  }

  type t = { dim : int; samples_per_cell : int; grids : grid array }

  val cells : grid -> int
  (** Live cells captured in the grid ([Array.length nballs]). *)

  val create_stamps : int -> stamps
  (** A fresh, uninitialized stamp column of that many cells. *)

  val check_shape : t -> unit
  (** Raises [Invalid_argument] unless every column has the length
      [dim], [samples_per_cell] and its grid's cell count give it. *)
end

val state : t -> State.t
(** Canonical copy of all mutable state (rng streams, id counters,
    cells, samples): a key sort per grid plus one copy of each cell's
    columns. The structure may continue evolving afterwards. Raises
    [Invalid_argument] on a space a colored update touched: colored
    flags are not part of the state. *)

val redraw : cfg:Config.t -> State.t -> unit
(** Overwrite every grid's [pos] column with the positions its cells'
    keys and stamps draw, through the same sampling step that drew them
    when the cells were created. On the host that took the state this
    reproduces [pos] bit for bit; a libm that rounds [cos]/[sin]
    differently draws other bits. Raises [Invalid_argument] when the
    state fails {!State.check_shape}, when [dim] or [samples_per_cell]
    is below 1, or when its grid count disagrees with the collection
    [cfg] derives. *)

val restore : cfg:Config.t -> State.t -> t
(** Rebuild a structure whose future behaviour is identical to the
    captured one's. The grid collection is re-derived from [cfg], which
    must be the config the captured structure was built with; raises
    [Invalid_argument] when the state is inconsistent with it (as for
    {!redraw}), when a cell has no ball, and when a cell's base id does
    not belong to its grid. Each cell's cached max and argmax are
    computed as its depths' first maximum (strict [>], as the update
    loops take it). No hook is registered on the restored structure. *)
