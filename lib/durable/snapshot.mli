(** Atomic full-state snapshots, stored as sidecar files next to the
    WAL ([<wal>.snap.<seq>], where [seq] is the number of ops applied
    when the snapshot was taken).

    A snapshot file is [magic "MXSNAP01" | u32le crc32 | i64 seq |
    encoded state], written through {!Atomic_file.write} — a crash
    mid-write can never produce a half-written snapshot under the real
    name. Corrupt or bit-rotted snapshots are skipped by {!newest} and
    {!load_all}, falling back to older ones. *)

val path : wal:string -> seq:int -> string

val write : wal:string -> seq:int -> Maxrs.Dynamic.State.t -> string
(** Atomically write the snapshot for op [seq]; returns its path. *)

val load_all : wal:string -> (int * Maxrs.Dynamic.State.t * string) list
(** All decodable snapshots for this WAL, newest (largest [seq]) first.
    Checksum- or decode-corrupt files are silently omitted; semantic
    validation happens later in [Dynamic.restore]. *)

val newest :
  wal:string ->
  min_seq:int ->
  (Maxrs.Dynamic.State.t -> 'a option) ->
  (int * 'a) option
(** Decode the snapshots with [seq >= min_seq] newest-first and return
    the first one [f] accepts, with its seq. Stops at that one: older
    sidecars are never read. Each snapshot passed over on the way — a
    bad magic or checksum, a failed decode, a seq that disagrees with
    the file name, or a state [f] rejects — counts once in
    [snapshot.skipped_corrupt]. *)

val prune : wal:string -> keep:int -> unit
(** Delete all but the [keep] newest snapshot files. *)
