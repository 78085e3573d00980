(** Dynamic MaxRS for d-balls — Theorem 1.1.

    Maintains, under insertions and deletions of weighted points, a
    placement of a d-ball of fixed radius whose covered weight is a
    (1/2 - eps)-approximation of the optimum (with high probability, in
    faithful-shift mode). Amortized update time O(eps^{-2d-2} log n).

    Works in the dual: each point becomes a unit ball (after scaling by
    the query radius) and the structure tracks the deepest of the
    Technique-1 circumsphere samples with an indexed max-heap over the
    cells ({!Cell_heap}): each cell caches its deepest sample, and the
    cell-change hook re-seats a cell in place, so {!best} reads the top
    in O(1). Epochs double or halve: when the live count leaves
    [n0/2, 2 n0] the sample space is rebuilt from scratch with a
    per-cell sample count tuned to the new n, and the rebuild cost
    amortizes over the epoch's updates (Lemma 3.4). *)

type t
type handle

val create : ?cfg:Config.t -> ?radius:float -> dim:int -> unit -> t
(** [create ~dim ()] with a unit query radius by default. *)

val insert : t -> ?weight:float -> Maxrs_geom.Point.t -> handle
(** Insert a point (default weight 1). O_eps(log n) amortized. Raises
    {!Maxrs_resilience.Guard.Error} on a dimension mismatch, non-finite
    coordinates, or a negative/non-finite weight. *)

val insert_checked :
  t ->
  ?weight:float ->
  Maxrs_geom.Point.t ->
  (handle, Maxrs_resilience.Guard.error) result
(** {!insert} with validation reported as a structured error; on
    [Error] the structure is unchanged. *)

val delete : t -> handle -> unit
(** Delete a previously inserted point. Raises [Not_found] on an unknown
    or already-deleted handle. *)

val size : t -> int
(** Number of live points. *)

val best : t -> (Maxrs_geom.Point.t * float) option
(** Current best placement: a center for the query ball and the
    (maintained) covered weight, [None] when no sample witnesses any
    ball (e.g. the structure is empty). The value is always achievable;
    w.h.p. it is at least (1/2 - eps) times the optimum. *)

val epochs : t -> int
(** Number of epoch rebuilds so far (for the amortization experiment). *)

val sample_count : t -> int

val dim : t -> int
val radius : t -> float
val config : t -> Config.t

val handle_id : handle -> int
(** Stable integer identity of a handle: dense, starting at 0, assigned
    in insertion order. This is the WAL's on-disk representation of a
    handle — [handle_of_id (handle_id h) = h]. *)

val handle_of_id : int -> handle

(** {2 Durability: exact state capture}

    The building block of the [maxrs_durable] snapshots: an exact
    serializable state. The contract is bit-identical continuation:
    [restore (state t)] behaves exactly like [t] — same cells, same
    counters, same answer to every future operation sequence — because
    all randomness flows through captured split-stream rng states and
    every order-sensitive internal iteration is canonical (sorted
    handles on epoch rebuilds, a total heap order). The
    durable session journals through {!Sharded.on_op}; this structure
    stays the reference the sharded store is checked against. *)

module State : sig
  type t = {
    dim : int;
    radius : float;
    cfg : Config.t;
    balls : (handle * (Maxrs_geom.Point.t * float)) list;
        (** scaled centers, sorted by handle *)
    n0 : int;
    next_handle : int;
    epochs : int;
    space : Sample_space.State.t;
  }
end

val state : t -> State.t
(** Canonical deep copy of the full structure state (the heap is
    excluded: {!restore} seeds it from the cells' cached maxima, and its
    total order makes the top independent of how it was built).
    Capturing is non-destructive. *)

val restore : State.t -> t
(** Rebuild a structure that continues bit-identically to the captured
    one. The structure adopts the state's sample-space columns
    ({!Sample_space.restore}): do not use the state afterwards. Raises
    [Invalid_argument] on an internally inconsistent state (a
    decoded-but-semantically-corrupt snapshot). *)
