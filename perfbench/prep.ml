(* The prepared session: written through [Session] by the code under
   test, in a process of its own, before any timing. Never reused
   across runs — its on-disk format belongs to the build under test. *)

module Session = Maxrs_durable.Session
module Wal = Maxrs_durable.Wal
module Snapshot = Maxrs_durable.Snapshot
module Dynamic = Maxrs.Dynamic
module Obs = Maxrs_obs.Obs

let wal_in dir = Filename.concat dir "s.wal"

(* The session configuration, passed explicitly: [Config.default]
   (eps = 0.4, faithful shifts), fsync every 64 appends, the snapshot
   cadence of the size. *)
let open_session ~size wal =
  Session.open_ ~wal ~snapshot_every:(Gen.snapshot_every size)
    ~fsync:(Wal.Interval Gen.fsync_interval) ~dim:2 ~radius:Gen.radius
    ~cfg:Maxrs.Config.default ()

let open_exn ~size wal =
  match open_session ~size wal with
  | Ok s -> s
  | Error m -> failwith ("Session.open_ " ^ wal ^ ": " ^ m)

(* Body of the [prepare] child process. *)
let write_layout ~size ~seed ~dir =
  Unix.mkdir dir 0o755;
  let s = open_exn ~size (wal_in dir) in
  Array.iter
    (fun (x, y, w) -> ignore (Session.insert s ~weight:w [| x; y |] : Dynamic.handle))
    (Gen.prepared ~size ~seed);
  Session.close s

let prepare ~self ~size ~seed ~dir =
  Proc.rm_rf dir;
  let pid =
    Proc.spawn ~label:"prepare" self
      [ "prepare"; "--dir"; dir; "--seed"; string_of_int seed; "--size"; Gen.size_to_string size ]
  in
  let status = Proc.waitpid_noeintr pid in
  Hashtbl.remove Proc.children pid;
  match status with
  | Some (_, Unix.WEXITED 0) -> ()
  | _ -> failwith "the prepare process failed"

(* Recovery split into its phases, each timed on its own, then the whole
   [Session.open_] on the same layout. An untimed load first grows the
   heap to its recovered size, so the phases and the open all run on
   the same heap (on a fresh heap the first load paid for the growth and
   the phases added up to more than the open). *)
type recovery = {
  scan_ms : float;
  load_ms : float;
  decoded : int;
  restore_ms : float;
  open_ms : float;
  replayed : int;
  used : int;  (** snapshots the open actually used (0 or 1) *)
}

let time_recovery ~size wal =
  ignore (Sys.opaque_identity (Snapshot.load_all ~wal));
  Gc.full_major ();
  let scan, scan_s = Util.time (fun () -> Wal.scan wal) in
  ignore (Sys.opaque_identity scan);
  let snaps, load_s = Util.time (fun () -> Snapshot.load_all ~wal) in
  let decoded = List.length snaps in
  let restore_s =
    match snaps with
    | (_, st, _) :: _ -> snd (Util.time (fun () -> ignore (Sys.opaque_identity (Dynamic.restore st))))
    | [] -> 0.
  in
  Gc.full_major ();
  let sess, open_s = Util.time (fun () -> open_exn ~size wal) in
  let replayed, used =
    match Session.recovery sess with
    | Some r -> (r.Session.replayed, if r.Session.snapshot_seq = None then 0 else 1)
    | None -> (0, 0)
  in
  ( sess,
    {
      scan_ms = scan_s *. 1e3;
      load_ms = load_s *. 1e3;
      decoded;
      restore_ms = restore_s *. 1e3;
      open_ms = open_s *. 1e3;
      replayed;
      used;
    } )

let recovery_metrics r =
  [
    ("session.open_ms", r.open_ms);
    ("wal.scan_ms", r.scan_ms);
    ("snapshot.load_ms", r.load_ms);
    ("snapshot.decoded", Float.of_int r.decoded);
    ( "snapshot.used_share",
      if r.decoded = 0 then 0. else Float.of_int r.used /. Float.of_int r.decoded );
    ("dynamic.restore_ms", r.restore_ms);
    ("recovery.replayed", Float.of_int r.replayed);
    ("recovery.replay_ms", r.open_ms -. r.scan_ms -. r.load_ms -. r.restore_ms);
  ]

(* Exact optimum ([Resilient.exact_weighted], no deadline) of a weighted
   point set. *)
let exact_opt pts =
  match Maxrs.Resilient.exact_weighted ~radius:Gen.radius pts with
  | Ok o -> (Maxrs_resilience.Outcome.value o).Maxrs.Resilient.value
  | Error e -> failwith (Maxrs_resilience.Guard.to_string e)

(* Per-op GC words, less the cost of reading the counters. *)
let gc_probe_cost =
  lazy
    (let m0, p0, _ = Gc.counters () in
     let m1, p1, _ = Gc.counters () in
     (m1 -. m0, p1 -. p0))

let gc_words f =
  let cm, cp = Lazy.force gc_probe_cost in
  let m0, p0, _ = Gc.counters () in
  let r = f () in
  let m1, p1, _ = Gc.counters () in
  (r, m1 -. m0 -. cm, p1 -. p0 -. cp)

let top_heap_mb () =
  Float.of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let obs_value name = Obs.value (Obs.counter name)
