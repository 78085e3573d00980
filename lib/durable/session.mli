(** Crash-safe session around {!Maxrs.Sharded}.

    Every applied insert/delete is journaled to a checksummed
    write-ahead log before the mutating call returns; full-state
    snapshots are written atomically every [snapshot_every] ops; and
    {!open_} on an existing layout recovers by restoring the newest
    usable snapshot and replaying the surviving log suffix, stopping
    cleanly at the first torn or corrupt record.

    Every session is a {!Maxrs.Sharded.t} with [k >= 1] storage shards
    and one WAL writer per shard, on one of two on-disk layouts:

    - {e single log} (default): a one-shard store journaling to one WAL
      file at [wal]. Its records carry no sequence number (an op's seq
      is its position) and epoch rebuilds leave verified markers.
    - {e shard manifest} ([~shards:k]): the [k] storage owners each
      journal to their own WAL beside a shard manifest (see
      {!Shard_wal}). Recovery scans all shard logs in parallel, merges
      them by global sequence number, replays the longest contiguous
      prefix, and cross-checks the recovered state fingerprint against
      the [Check] records stamped into every shard log at creation,
      each snapshot and each clean close.

    One recovery driver serves both layouts.

    The recovery guarantee is {e bit-identical prefix continuation}
    for both layouts: after any crash, truncation, or record
    corruption (including damage confined to a subset of shard logs),
    the recovered structure is byte-for-byte equivalent (same cells,
    same counters, same answer to the next query) to one that replayed
    the surviving op prefix from scratch. Ops whose mutating call had
    not returned at crash time may be lost; nothing else is. *)

type t

type recovery = {
  snapshot_seq : int option;  (** seq of the snapshot used, if any *)
  replayed : int;  (** op records replayed on top of it *)
  seq : int;  (** total ops live after recovery *)
  truncated_bytes : int;  (** corrupt/torn suffix dropped from the log(s) *)
  corruption : string option;  (** why the log scan stopped early *)
  wal_rewritten : bool;
      (** the log was rewritten from a snapshot newer than its valid
          prefix, or its header was unrecoverable *)
}

val open_ :
  wal:string ->
  ?shards:int ->
  ?domains:int ->
  ?snapshot_every:int ->
  ?fsync:Wal.fsync_policy ->
  ?dim:int ->
  ?radius:float ->
  ?cfg:Maxrs.Config.t ->
  unit ->
  (t, string) result
(** Open or recover the session at [wal]. [snapshot_every] ops between
    automatic snapshots (default 1000; [0] disables them); [fsync]
    defaults to [Interval 64]. When the log exists, its recorded
    [dim]/[radius]/[cfg] win over the optional arguments (which default
    to [dim = 2], [radius = 1.], {!Maxrs.Config.default} and only seed
    a fresh session).

    [shards]: [Some k] creates a fresh {e shard-manifest} session with
    [k] storage shards. On an existing layout the disk wins: a shard
    manifest at [wal] always reopens as one (with its recorded shard
    count, ignoring [shards]), a single log always reopens as a single
    log — and passing [shards] over an existing single log is an
    [Error] rather than a silent overwrite. A lost or corrupt manifest
    over surviving shard logs is rebuilt from the shard log headers.
    [domains] bounds the store's worker pool (never more than its shard
    count) and the parallel recovery scan of a manifest layout;
    defaults like {!Maxrs_parallel.Parallel.resolve}.

    [Error] cases: the path holds a foreign file, the log is
    unrecoverable (replay divergence, fingerprint mismatch, or a
    rewritten log whose covering snapshot was lost), or [shards]
    conflicts with the existing layout. *)

val insert : t -> ?weight:float -> Maxrs_geom.Point.t -> Maxrs.Dynamic.handle
val delete : t -> Maxrs.Dynamic.handle -> unit
val best : t -> (Maxrs_geom.Point.t * float) option
val size : t -> int

val seq : t -> int
(** Ops applied over the session's whole history (across restarts).
    One atomic load: safe from any thread without holding the lock that
    serializes the session's ops; it counts an op from the moment the
    op is applied. *)

val recovery : t -> recovery option
(** [None] when {!open_} created a fresh log. *)

val shards : t -> int
(** Storage shard count: [1] for a single-log session. *)

val state : t -> Maxrs.Dynamic.State.t
(** Canonical full state — sessions holding the same balls return
    byte-identical encodings whatever their layout and shard count. *)

val snapshot_now : t -> unit
(** Flush the WAL(s), write a snapshot at the current seq, prune old
    ones (keeping 2). A shard-manifest session additionally stamps the
    state fingerprint ([Check] record) into every shard log. *)

val flush : t -> unit
(** fsync any unsynced WAL appends. *)

val close : t -> unit
(** Flush and close the WAL(s) and shut the store's pool down; a
    shard-manifest session first writes a final fingerprint anchor to
    every shard log. Idempotent; further mutation raises. *)

val wal_path : t -> string
