(** Exact 1-D MaxRS: place an interval of fixed length on the real line to
    maximize the total weight of covered points.

    This is the oracle at the receiving end of the Section 5 reduction
    chain, so — unlike classical MaxRS — it must handle {e negative}
    weights (the reduction's "guard" points). Intervals are closed.

    Single query: O(n log n). Batched queries reuse one sort and cost
    O(n) per additional length — the paper's trivial O(mn) upper bound,
    which Theorem 1.3 shows is conditionally optimal. *)

type placement = {
  lo : float;  (** left endpoint of an optimal interval [lo, lo + len] *)
  value : float;  (** total covered weight *)
}

val max_sum : len:float -> (float * float) array -> placement
(** [max_sum ~len pts] with [pts] an array of (coordinate, weight) pairs.
    Requires [len >= 0]. The empty placement (weight 0, covering no
    points, far away) is also considered, so the value is never
    negative. One pass gathers the pairs, {!Maxrs_geom.Kern.order}
    orders them, one sweep answers — on per-domain scratch lent to the
    call ({!Maxrs_geom.Lend}), so once it has grown a call allocates
    only its answer. Raises [Invalid_argument] on a non-finite
    coordinate or weight. *)

val max_sum_brute : len:float -> (float * float) array -> placement
(** O(n^2) reference implementation (candidate left endpoints are the
    points and the points shifted by [-len]). *)

type batched = {
  xs : Maxrs_geom.Fvec.t;  (** coordinates, ascending *)
  ws : Maxrs_geom.Fvec.t;  (** weights, in [xs] order *)
  prefix : Maxrs_geom.Fvec.t;
      (** prefix weight sums: [prefix.{0} = 0],
          [prefix.{i+1} = prefix.{i} +. ws.{i}] — the array the RMSQ
          read tier ({!Maxrs_query.Rmsq}) compiles its index from *)
  n : int;
}
(** Flat unboxed columns shared read-only by every query (and every
    domain): no boxed pairs survive preprocessing. *)

val preprocess : (float * float) array -> batched
(** Sort once into fresh flat columns, with their prefix sums;
    O(n log n). Equal coordinates keep input order. Raises
    [Invalid_argument] on a non-finite coordinate or weight. *)

val query : batched -> len:float -> placement
(** O(n) per length, via a merge of the two implicitly-sorted event lists. *)

val batched :
  ?domains:int -> lens:float array -> (float * float) array -> placement array
(** [preprocess] + one [query] per length: O(n log n + mn). The m
    queries are independent; [domains] (default [MAXRS_DOMAINS], else 1)
    answers them concurrently on a domain pool with bit-identical output
    for any domain count. *)

(** {1 Validated entries}

    Same computations, but non-finite coordinates, weights or lengths
    (and negative lengths) are rejected up front with a structured
    error. Negative {e weights} remain legal — the Section 5 reductions
    plant negative guard points. Empty inputs are legal here (the empty
    placement has value 0). *)

val max_sum_checked :
  len:float ->
  (float * float) array ->
  (placement, Maxrs_resilience.Guard.error) result

val batched_checked :
  ?domains:int ->
  lens:float array ->
  (float * float) array ->
  (placement array, Maxrs_resilience.Guard.error) result
