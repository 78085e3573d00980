(** The shifted-grid collection of Lemma 2.1.

    For side length [s] and nearness parameter [delta], the collection
    [{ G_s((delta/sqrt d) z) | z in {0..ceil(s sqrt d/delta)-1}^d }]
    guarantees that every point of [R^d] is [delta]-near (within [delta]
    of its cell's center) in at least one grid.

    The faithful collection has [(s sqrt d/delta)^d] grids — the
    [epsilon^{-d}] factor in Theorems 1.1/1.2/1.5. For benchmarking in
    higher dimensions a [cap] can replace it by that many uniformly random
    shifts ("practical mode", see DESIGN.md); the Δ-nearness guarantee then
    holds only probabilistically. *)

type t = private {
  dim : int;
  side : float;
  delta : float;
  grids : Grid.t array;
  faithful : bool;
}

val make : ?cap:int -> ?rng:Rng.t -> dim:int -> side:float -> delta:float -> unit -> t
(** [make ~dim ~side ~delta ()] builds the faithful collection. With
    [?cap:(Some c)] and the faithful size exceeding [c], builds [c] grids
    with uniformly random origins in [\[0, side)^d] instead ([rng] defaults
    to a fixed seed). *)

val shifts_per_axis : side:float -> delta:float -> dim:int -> int
(** [ceil (side * sqrt dim / delta)] — the per-axis shift count of the
    faithful collection. *)

val count_for :
  ?cap:int -> dim:int -> side:float -> delta:float -> unit -> float
(** The number of grids {!make} builds for these arguments, computed
    without building them — as a float, since a faithful collection's
    size can exceed every int. *)

val count : t -> int

val is_near : t -> grid_index:int -> Point.t -> bool
(** Whether the point is [delta]-near in the given grid: inside the
    closed [delta]-ball about its cell's center ({!Closed} rule). *)

val find_near : t -> Point.t -> (int * Grid.key) option
(** Some grid of the collection in which the point is [delta]-near
    (guaranteed to exist in faithful mode — Lemma 2.1). *)
