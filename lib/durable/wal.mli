(** Append-only write-ahead log of dynamic-structure operations.

    File layout: an 8-byte magic ["MXWAL001"], then frames of
    [u32le payload-length | u32le crc32 | payload]. The first frame is
    a parameters record; every later frame is one applied operation or
    an epoch consistency marker. Frames are written with a single
    [write] each, so only a crash can tear the final frame — the
    scanner stops at the first torn or corrupt frame and reports the
    longest valid prefix, which is what recovery replays. *)

type fsync_policy =
  | Always  (** fsync after every append — maximal durability *)
  | Interval of int  (** fsync every [n] appends (and on close/flush) *)
  | Never  (** fsync only on close/flush *)

type params = {
  dim : int;
  radius : float;
  cfg : Maxrs.Config.t;
  base_seq : int;
      (** sequence number of the ops preceding this file's first
          record; non-zero only after a snapshot-driven log rewrite *)
}

type record =
  | Insert of { handle : int; point : float array; weight : float }
  | Delete of int
  | Epoch of { epochs : int; n0 : int }
      (** consistency marker fired by epoch rebuilds; replay verifies
          it instead of applying it *)
  | Sinsert of { seq : int; handle : int; point : float array; weight : float }
      (** sharded insert: carries its global sequence number explicitly,
          because a per-shard log holds only a subsequence of the op
          stream and recovery re-merges the shard logs by [seq] *)
  | Sdelete of { seq : int; handle : int }  (** sharded delete *)
  | Check of { seq : int; state_crc : int }
      (** fingerprint cross-check: CRC-32 of the canonical encoded state
          after op [seq]; written to {e every} shard log at snapshot and
          close, verified during sharded recovery *)

type corruption =
  | Torn of { offset : int }  (** incomplete final frame *)
  | Checksum of { offset : int }  (** CRC mismatch / absurd length *)
  | Malformed_record of { offset : int; reason : string }

val corruption_to_string : corruption -> string

type scan = {
  params : params;
  records : record list;  (** the valid records, in append order *)
  offsets : int array;
      (** [offsets.(i)] = file offset just past record [i] (crash-test
          cut points) *)
  valid_bytes : int;  (** length of the valid prefix *)
  corruption : corruption option;  (** why the scan stopped, if not EOF *)
}

type scan_result =
  | Scan of scan
  | No_file
  | Empty_file
  | Torn_header
      (** the file starts like a WAL but the header never made it to
          disk intact — safe to rewrite *)
  | Foreign_file
      (** the file exists but is not a WAL — refuse to touch it *)

val scan : string -> scan_result
val scan_string : string -> scan_result

(** {1 Writing} *)

type writer

val create : string -> params -> fsync:fsync_policy -> writer
(** Truncate/create the file and write the header (magic + params
    frame), fsyncing it regardless of policy. *)

val reopen : string -> valid_bytes:int -> fsync:fsync_policy -> writer
(** Continue an existing log: truncate to the scanned valid prefix
    (dropping any torn/corrupt suffix) and append after it. *)

val append : writer -> record -> unit
(** Append one frame; fsyncs according to the policy. *)

val flush : writer -> unit
(** Force an fsync of any unsynced appends. *)

val close : writer -> unit
(** Flush and close. Idempotent. *)

val record_size : record -> int
(** On-disk frame size of a record, in bytes. *)

val write_all : Unix.file_descr -> bytes -> unit
(** Write the entire buffer, looping on short [write(2)] returns,
    retrying [EINTR], and waiting for writability on [EAGAIN] (so it is
    safe on non-blocking fds). Every WAL append goes through this; the
    network layer reuses it for socket sends. *)
