(* Durable whole-file replacement: write [<path>.tmp] through
   [Wal.write_all], fsync it, rename it over [path], then fsync the
   directory so the rename itself survives a crash. A crash leaves
   either the old file or the new one under [path], plus at worst a
   stale .tmp that readers ignore. *)

(* A failed directory fsync is ignored, as it always has been here:
   making it fail-stop is part of the disk-fault work on the roadmap. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let write path data =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Wal.write_all fd data;
      Unix.fsync fd);
  Sys.rename tmp path;
  fsync_dir (Filename.dirname path)
