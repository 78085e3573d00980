(** Sharded dynamic MaxRS: {!Dynamic} restructured as persistent
    per-shard owners over a long-lived {!Maxrs_parallel.Parallel} pool.

    Shard [s] owns (a) the grids [{gi | gi mod shards = s}] of the
    Lemma 2.1 shifted collection — the compute partition: per-grid
    sample-space state is disjoint and deterministic, so shards apply
    every update concurrently and the resulting state is bit-identical
    to the unsharded structure's for {e any} shard and domain count —
    and (b) the balls whose Lemma 2.1 spatial key hashes to [s] — the
    storage partition: the ball lives in shard [s]'s flat columns and
    its ops are journaled (by the durable layer) to shard [s]'s WAL.

    Every shard keeps a private {!Cell_heap} over its own grids' cells;
    {!best} merges the per-shard tops in shard-index order under the
    heap's strict total order ({!Cell_heap.precedes}), which equals the
    top of one global heap because cell uids are globally unique.

    The answer contract, checked by the differential suite: a sharded
    store and a {!Dynamic} fed the same operation sequence return
    bit-identical answers and capture equal {!Dynamic.State.t} values,
    for every shard count, domain count, and injected-fault schedule. *)

type t
type handle = Dynamic.handle

val create :
  ?cfg:Config.t ->
  ?radius:float ->
  ?domains:int ->
  dim:int ->
  shards:int ->
  unit ->
  t
(** [create ~dim ~shards ()] builds an empty store with [shards] owners
    on a fresh pool of [min domains shards] domains ([domains] defaults
    to [MAXRS_DOMAINS]), so a one-shard store never spawns a domain.
    Shard and domain counts are otherwise independent: shards fix the
    {e state} partition (and the durable layout), domains fix the
    executors.
    Raises [Invalid_argument] if [shards < 1] or [radius <= 0]. *)

val insert : t -> ?weight:float -> Maxrs_geom.Point.t -> handle
(** Same contract as {!Dynamic.insert}; the update fans out across the
    shard owners. *)

val insert_checked :
  t ->
  ?weight:float ->
  Maxrs_geom.Point.t ->
  (handle, Maxrs_resilience.Guard.error) result

val delete : t -> handle -> unit
(** Same contract as {!Dynamic.delete}. *)

val best : t -> (Maxrs_geom.Point.t * float) option
(** Deterministic shard-index-order merge of the per-shard heap tops —
    bit-identical to {!Dynamic.best} on the same op sequence. *)

val size : t -> int
val epochs : t -> int
val dim : t -> int
val radius : t -> float
val config : t -> Config.t

val shards : t -> int
(** Shard count (fixed at creation). *)

val shard_of_handle : t -> handle -> int option
(** Storage owner of a live handle; [None] if unknown/deleted. *)

(** {2 Journaling and state capture}

    The durable session's hook: every mutation reports its storage
    owner, so the session appends the record to exactly that shard's
    WAL. Epoch markers carry no shard: they are derived state (recovery
    re-derives rebuilds from the op stream); the single-log layout
    records them as consistency markers. *)
type op_event =
  | Op_insert of {
      shard : int;
      handle : handle;
      point : Maxrs_geom.Point.t;
      weight : float;
    }
  | Op_delete of { shard : int; handle : handle }
  | Op_epoch of { epochs : int; n0 : int }

val on_op : t -> (op_event -> unit) -> unit
(** Register the journaling hook (a single slot; the default is
    [ignore]). It runs synchronously inside {!insert}/{!delete} after
    the mutation is applied — [Op_insert]/[Op_delete] first, then
    [Op_epoch] if the op triggered a rebuild — and must not mutate the
    store. [Op_insert]'s [point] is the caller's (unscaled) point. *)

val state : t -> Dynamic.State.t
(** Canonical state capture — the {e same} type and the same canonical
    form as {!Dynamic.state}, so fingerprints
    ([Codec.encode_state]) of a sharded store and its unsharded
    reference are directly comparable (and equal, by the answer
    contract). *)

val restore : ?domains:int -> shards:int -> Dynamic.State.t -> t
(** Rebuild a sharded store that continues bit-identically to the
    captured structure (sharded or not — the state type carries no
    shard count; storage owners are re-derived from the spatial key).
    The store adopts the state's sample-space columns
    ({!Sample_space.restore}): do not use the state afterwards. Raises
    [Invalid_argument] on an inconsistent state. *)

val close : t -> unit
(** Shut down the owner pool. Further mutations raise
    [Invalid_argument]; queries and {!state} still answer. Idempotent. *)
