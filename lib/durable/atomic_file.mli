(** Durable whole-file replacement, shared by snapshots and the shard
    manifest. *)

val write : string -> bytes -> unit
(** [write path data]: write [data] to [<path>.tmp], fsync it, rename
    it over [path] and fsync the directory. A crash leaves either the
    old or the new file under [path], never a partial one. *)
