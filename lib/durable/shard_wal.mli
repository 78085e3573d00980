(** Sharded WAL layout: a shard manifest at the session's base path
    plus one ordinary {!Wal} file per shard beside it
    ([<base>.shard<k>]).

    Sharded op records carry their global sequence number explicitly;
    recovery scans all shard logs in parallel, merges them back into
    sequence order, and keeps the {e longest contiguous prefix} from
    the base — an op whose predecessor (in another shard's log) was
    lost is dropped even though its own frame is intact, so parallel
    multi-log recovery lands on the same bit-identical-prefix contract
    as the single-log session. *)

val shard_path : string -> int -> string
(** [shard_path base k] is the path of shard [k]'s log. *)

val shard_files_present : string -> int
(** Number of consecutive shard logs present on disk (self-describing
    shard count when the manifest is lost). *)

(** {1 Manifest} *)

type manifest = {
  shards : int;
  params : Wal.params;  (** the params every shard log's header repeats *)
}

val write_manifest : string -> manifest -> unit
(** Atomic and durable ({!Atomic_file.write}). Written {e last} at
    layout creation — the commit point — and rewritten on every log
    rewrite. *)

type manifest_result =
  | Manifest of manifest
  | No_manifest  (** no file at the path *)
  | Not_manifest  (** a file exists but is not a shard manifest *)
  | Corrupt_manifest  (** right magic, damaged payload *)

val read_manifest : string -> manifest_result

(** {1 Parallel scan and sequence merge} *)

type shard_scan = {
  scan : Wal.scan option;
  damaged : string option;
      (** why this shard contributed nothing (missing/unreadable log,
          base mismatch); damage bounds the merged prefix instead of
          aborting recovery *)
}


val scan_all :
  string -> shards:int -> base_seq:int -> domains:int -> shard_scan array
(** Scan every shard log concurrently on a scratch pool of [domains]
    domains; deterministic (scans are pure reads placed by index). *)

type merged_op = { seq : int; shard : int; record : Wal.record }

type merged = {
  seq_end : int;  (** last op of the contiguous prefix (= recovered seq) *)
  ops : merged_op list;  (** contiguous prefix ops, ascending seq *)
  checks : (int * int) list;
      (** (seq, state_crc) fingerprints with seq <= seq_end, ascending *)
  keep : (int * int) array;
      (** per shard: (valid-prefix bytes, records kept) — the reopen
          truncation boundaries *)
  corruption : string option;  (** first reason the prefix stopped early *)
}

val merge : base_seq:int -> shard_scan array -> merged
