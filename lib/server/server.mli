(** The MaxRS daemon: accept loop, bounded work queue with explicit
    admission control, worker pool with per-request deadline
    degradation, and graceful drain.

    Robustness contract: the daemon never goes down with a client. A
    torn frame, CRC flip, oversized length, slow-loris peer or
    mid-request disconnect costs at most that one connection; overload
    is shed with structured [Overloaded] replies carrying a
    retry-after hint, never absorbed into an unbounded queue. *)

type config = {
  addr : Netio.addr;
  workers : int;  (** worker threads executing solves *)
  queue_cap : int;
      (** max queued requests; above this, requests are rejected with
          [Overloaded] — the admission-control bound *)
  max_conns : int;  (** connections above this are refused *)
  max_frame : int;  (** request frames above this are rejected *)
  idle_timeout : float;  (** seconds a connection may sit silent *)
  read_deadline : float;
      (** seconds a started frame may take (slow-loris guard) *)
  write_deadline : float;  (** seconds a reply send may take *)
  default_deadline : float option;
      (** compute budget for requests that carry none *)
  drain_grace : float;
      (** seconds granted to in-flight work after {!begin_drain};
          budgets are clamped so work degrades rather than stalls *)
  wal : string option;  (** back dynamic requests with this WAL *)
  fsync : Maxrs_durable.Wal.fsync_policy;
  snapshot_every : int;
  shards : int option;
      (** open a fresh session on the shard-manifest layout ([Some k] =
          [k] per-shard WALs with parallel recovery); [None] opens a
          single log — an existing layout at [wal] reopens as it is
          either way (the disk wins) *)
  domains : int option;  (** worker-pool bound for the session's store *)
  index : bool;
      (** compile RMSQ read-tier indexes on a background domain and
          serve [Range_sum] from the live epoch (default [true]; only
          meaningful with a session). The builder recompiles whenever
          the store is ahead of the live index
          ({!Maxrs_query.Index_builder.start}). *)
}

val default_config : Netio.addr -> config

type t

val start : config -> (t, string) result
(** Bind, open the session (when [wal] is set), spawn acceptor and
    workers, return immediately. *)

val session : t -> Maxrs_durable.Session.t option

val with_session_lock : t -> (unit -> 'a) -> 'a
(** Run [f] holding the lock that serializes the session's ops (writes,
    [Query], index captures) — needed to touch {!session} while the
    daemon serves. An indexed [Range_sum] does not take it. *)

val draining : t -> bool

val stats : t -> Proto.server_stats

val begin_drain : t -> unit
(** Stop admitting (new connections and new requests get
    [Shutting_down]); clamp remaining compute budgets to the drain
    grace. Safe to call from a signal handler context and idempotent. *)

val wait : t -> unit
(** Join workers and acceptor — returns once every admitted request
    has been answered (or degraded) and the session is flushed and
    closed. Call after {!begin_drain}. *)

val stop : t -> unit
(** [begin_drain] then [wait]. *)
