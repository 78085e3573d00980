(** Background compilation of {!Rmsq} indexes from the live store.

    The log-structured split: writes keep flowing into the WAL-backed
    {!Maxrs_durable.Session}; this builder periodically captures a
    consistent state (or loads the newest durable snapshot), compiles
    an immutable index on its own domain, and publishes it through
    {!Epoch}. Readers keep serving the previous epoch until the swap,
    and the swap is one atomic store; the compile blocks nobody. The
    capture does: it runs inside the source's critical section, so
    whoever shares that lock (the server's writers, and the seq read of
    its indexed [Range_sum]) waits for one full state copy per
    rebuild.

    Locking is the caller's: a {!source}'s closures must themselves be
    safe to call concurrently with writes (the server wraps them in its
    session mutex; single-threaded embedders pass them bare). *)

type source = {
  src_seq : unit -> int;
      (** cheap read of the store's applied-op count *)
  src_capture : unit -> Maxrs.Dynamic.State.t * int;
      (** consistent (state, seq) pair — both from the same critical
          section, so [seq] is exactly the op count the state reflects *)
}

val source_of_session : Maxrs_durable.Session.t -> source
(** Bare closures over [Session.state]/[Session.seq] — no locking;
    wrap or serialise externally if writers run on other threads. *)

val build_once : ?lens:float array -> source -> Epoch.t -> Epoch.entry
(** Capture, compile, publish; returns the published entry. Also
    exports the build wall time as the [rmsq.build_ms] gauge. *)

val of_snapshot :
  ?lens:float array -> wal:string -> unit -> (Epoch.entry, string) result
(** Compile from the newest decodable durable snapshot of [wal]
    without opening a session (crash-recovery read path: corrupt
    snapshots are skipped by {!Maxrs_durable.Snapshot.newest}).
    Returns an unpublished entry with [epoch = 0]; publish it through
    {!Epoch.publish} if it should serve. [Error] when no snapshot
    decodes. *)

type t

val start : source -> Epoch.t -> t
(** Spawn the builder domain: every 20 ms it reads the store seq and
    rebuilds when the live epoch is missing or behind the store — the
    staleness bound: the served index lags the store by the ops of one
    poll interval plus one in-flight rebuild. Each poll also refreshes
    the [rmsq.lag_ops] gauge. *)

val stop : t -> unit
(** Signal and join the builder domain. Idempotent. Call before
    closing the underlying session. *)
