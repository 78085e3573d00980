(* Crash-safe session around [Maxrs.Sharded]: every applied operation
   is journaled through the store's op hook to the WAL of the shard that
   owns it, full-state snapshots are taken every [snapshot_every] ops,
   and [open_] on an existing layout recovers by restoring the newest
   usable snapshot and replaying the surviving op prefix, stopping
   cleanly at the first torn or corrupt record.

   One backend, two on-disk layouts, one recovery driver:

   - The single log: one WAL at [wal] with unsequenced
     [Insert]/[Delete] records and [Epoch] markers, behind a one-shard
     store. Recovery reads it as shard 0 of a one-shard layout: an op's
     seq is its position after the log's base, and every [Epoch]
     marker is verified against the replayed structure.
   - The shard manifest ([Shard_wal]): a manifest at [wal] plus one WAL
     per shard. Records carry their global seq; recovery scans all
     shard logs in parallel, merges them by seq, replays the longest
     contiguous prefix, and cross-checks the [Check] state fingerprints
     stamped at creation, at every snapshot and at every clean close.

   The single log is the layout of every session not opened with
   [~shards]. A manifest stamps a fingerprint at creation, at every
   snapshot and at every clean close. A snapshot's stamp is free: the
   snapshot's own checksum pass yields the state's CRC, and a close
   with no op since that snapshot reuses it. Any other stamp costs a
   state capture, encoding and CRC: 70-120 ms for the 8.8 MB state of
   n = 2,500 balls at the default config (capture 36-76 ms, encode
   25-33 ms, CRC 10-13 ms on a shared 2-CPU x86-64 host), against
   ~0.18 s for the 50 MB encoding that stored every sample's position
   and 0.67-0.77 s before the state was captured in columns.

   Because restore-from-state continues bit-identically (captured rng
   streams, canonical iteration orders, exact float bit patterns), the
   recovered structure is byte-for-byte equivalent to one that replayed
   the surviving op prefix from scratch — for both layouts.

   Ordering: the hook journals an op after it is applied but before the
   mutating call returns, so a crash can only lose ops that had not yet
   returned to the caller — recovery always lands on a valid prefix,
   never a half-applied operation. *)

module Obs = Maxrs_obs.Obs
module Config = Maxrs.Config
module Dynamic = Maxrs.Dynamic
module Sharded = Maxrs.Sharded
module Parallel = Maxrs_parallel.Parallel

let c_runs = Obs.counter "recovery.runs"
let c_replayed = Obs.counter "recovery.replayed"
let c_truncated = Obs.counter "recovery.truncated_bytes"

(* Wall-clock milliseconds spent opening a session that recovered, for
   either layout — the E16 experiment's recovery-latency signal. *)
let c_shard_recovery_ms = Obs.counter "shard.recovery_ms"

type recovery = {
  snapshot_seq : int option;  (** seq of the snapshot used, if any *)
  replayed : int;  (** op records replayed on top of it *)
  seq : int;  (** total ops live after recovery *)
  truncated_bytes : int;  (** corrupt/torn suffix dropped from the log *)
  corruption : string option;  (** why the log scan stopped early *)
  wal_rewritten : bool;
      (** the log was rewritten from a snapshot newer than its own
          valid prefix (or its header was unrecoverable) *)
}

type t = {
  store : Sharded.t;
  writers : Wal.writer array;  (** [writers.(k)] journals shard [k] *)
  manifest : bool;
      (** shard-manifest layout (sequenced records, [Check]
          fingerprints) rather than the single log *)
  wal : string;
  snapshot_every : int;
  mutable seq : int;
  mutable last_snapshot_seq : int;
  mutable snapshot_crc : int option;
      (** the state CRC of the snapshot at [last_snapshot_seq], when
          this session wrote it *)
  mutable closed : bool;
  recovery : recovery option;
}

(* Replay disagrees with the log: handle, epoch, owner or fingerprint
   mismatch. [open_] reports it as an [Error]. *)
exception Divergence of string

let file_size path =
  try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let log_path ~wal ~manifest k =
  if manifest then Shard_wal.shard_path wal k else wal

let params_of store ~base_seq =
  {
    Wal.dim = Sharded.dim store;
    radius = Sharded.radius store;
    cfg = Sharded.config store;
    base_seq;
  }

(* Stamp [crc], the fingerprint of the state after op [seq], into
   every shard log: recovery verifies the merged replay against it. *)
let stamp writers ~seq crc =
  Array.iter
    (fun w -> Wal.append w (Wal.Check { seq; state_crc = crc }))
    writers

(* Write a whole layout for [store], its logs starting after op
   [base_seq]. A manifest layout anchors every shard log with a
   fingerprint at the base, so recovery can cross-check even an op-free
   log, and writes the manifest last: its rename is the commit point. *)
let create_logs ~wal ~fsync ~manifest store ~base_seq =
  let params = params_of store ~base_seq in
  let writers =
    Array.init (Sharded.shards store) (fun k ->
        Wal.create (log_path ~wal ~manifest k) params ~fsync)
  in
  if manifest then begin
    stamp writers ~seq:base_seq (Codec.state_crc (Sharded.state store));
    Array.iter Wal.flush writers;
    Shard_wal.write_manifest wal
      { Shard_wal.shards = Array.length writers; params }
  end;
  writers

(* Journal every applied op to its owner's log. Single-log records are
   unsequenced and epoch rebuilds leave an [Epoch] marker; manifest
   records carry their global seq, and rebuilds are not journaled there
   (recovery re-derives them from the op stream and verifies the result
   through handle checks and [Check] fingerprints). *)
let install_hook t =
  Sharded.on_op t.store (fun ev ->
      match ev with
      | Sharded.Op_insert { shard; handle; point; weight } ->
          t.seq <- t.seq + 1;
          let handle = Dynamic.handle_id handle in
          Wal.append t.writers.(shard)
            (if t.manifest then
               Wal.Sinsert { seq = t.seq; handle; point; weight }
             else Wal.Insert { handle; point; weight })
      | Sharded.Op_delete { shard; handle } ->
          t.seq <- t.seq + 1;
          let handle = Dynamic.handle_id handle in
          Wal.append t.writers.(shard)
            (if t.manifest then Wal.Sdelete { seq = t.seq; handle }
             else Wal.Delete handle)
      | Sharded.Op_epoch { epochs; n0 } ->
          if not t.manifest then
            Wal.append t.writers.(0) (Wal.Epoch { epochs; n0 }))

(* {1 Recovery} *)

(* What recovery reads off either layout. *)
type logs = {
  manifest : bool;
  shards : int;
  params : Wal.params;  (** the logs' structure parameters and base seq *)
  merged : Shard_wal.merged;  (** the surviving op prefix, in seq order *)
  bytes : int;  (** log bytes on disk before recovery *)
  lost : bool;
      (** nothing readable is left of the logs: they are rewritten
          from the starting state whatever it is *)
  rebuild_manifest : bool;
      (** the manifest was lost or corrupt: rewrite it once recovered *)
}

(* The single log as shard 0 of a one-shard layout: an op's seq is its
   position after the base, an [Epoch] marker takes the seq of the op
   before it, and the whole valid prefix is kept. *)
let single_logs ~wal (sc : Wal.scan) =
  let seq = ref sc.Wal.params.Wal.base_seq in
  let ops =
    List.map
      (fun record ->
        (match record with
        | Wal.Insert _ | Wal.Delete _ -> incr seq
        | Wal.Epoch _ -> ()
        | Wal.Sinsert _ | Wal.Sdelete _ | Wal.Check _ ->
            raise (Divergence "sharded record in a solo log"));
        { Shard_wal.seq = !seq; shard = 0; record })
      sc.Wal.records
  in
  {
    manifest = false;
    shards = 1;
    params = sc.Wal.params;
    merged =
      {
        Shard_wal.seq_end = !seq;
        ops;
        checks = [];
        keep = [| (sc.Wal.valid_bytes, List.length sc.Wal.records) |];
        corruption = Option.map Wal.corruption_to_string sc.Wal.corruption;
      };
    bytes = file_size wal;
    lost = false;
    rebuild_manifest = false;
  }

(* Logs that are missing, empty or headless: nothing to replay, and
   the caller's parameters stand in for the lost headers. *)
let lost_logs ~wal ~manifest ~shards params ~why =
  {
    manifest;
    shards;
    params;
    merged =
      {
        Shard_wal.seq_end = 0;
        ops = [];
        checks = [];
        keep = Array.make shards (0, 0);
        corruption = Some why;
      };
    bytes = file_size wal;
    lost = true;
    rebuild_manifest = false;
  }

let manifest_logs ~wal ~domains ~rebuild_manifest (m : Shard_wal.manifest) =
  let base_seq = m.Shard_wal.params.Wal.base_seq in
  let scans =
    Shard_wal.scan_all wal ~shards:m.Shard_wal.shards ~base_seq
      ~domains:(Parallel.resolve domains)
  in
  let bytes = ref 0 in
  for k = 0 to m.Shard_wal.shards - 1 do
    bytes := !bytes + file_size (Shard_wal.shard_path wal k)
  done;
  {
    manifest = true;
    shards = m.Shard_wal.shards;
    params = m.Shard_wal.params;
    merged = Shard_wal.merge ~base_seq scans;
    bytes = !bytes;
    lost = false;
    rebuild_manifest;
  }

(* Corrupt or vanished manifest over surviving shard logs: the layout
   is self-describing enough to rebuild it — shard files are
   enumerable and each carries the params (incl. base_seq) in its own
   header. *)
let manifest_from_shard_files wal =
  let n = Shard_wal.shard_files_present wal in
  let rec first_params k =
    if k >= n then None
    else
      match Wal.scan (Shard_wal.shard_path wal k) with
      | Wal.Scan sc -> Some { Shard_wal.shards = n; params = sc.Wal.params }
      | _ -> first_params (k + 1)
  in
  first_params 0

(* Replay the surviving ops past [from_seq] (the snapshot holds the
   rest), verifying handle assignment, storage ownership (the op must
   come from its owner's log), every [Epoch] marker and every state
   fingerprint inside the replayed range. *)
let replay store (merged : Shard_wal.merged) ~from_seq =
  let checks =
    ref (List.filter (fun (s, _) -> s >= from_seq) merged.checks)
  in
  let verify_at seq =
    match !checks with
    | (cseq, crc) :: rest when cseq = seq ->
        checks := rest;
        let actual = Codec.state_crc (Sharded.state store) in
        if actual <> crc then
          raise
            (Divergence
               (Printf.sprintf
                  "state fingerprint mismatch at seq %d: recovered %08x, log \
                   says %08x"
                  seq actual crc))
    | _ -> ()
  in
  verify_at from_seq;
  let applied = ref 0 in
  List.iter
    (fun (op : Shard_wal.merged_op) ->
      match op.record with
      | Wal.Epoch { epochs; n0 = _ } ->
          if op.seq >= from_seq && Sharded.epochs store <> epochs then
            raise
              (Divergence
                 (Printf.sprintf "epoch marker %d but structure has %d" epochs
                    (Sharded.epochs store)))
      | _ when op.seq <= from_seq -> ()
      | Wal.Insert { handle; point; weight }
      | Wal.Sinsert { handle; point; weight; _ } ->
          let h = Sharded.insert store ~weight point in
          if Dynamic.handle_id h <> handle then
            raise
              (Divergence
                 (Printf.sprintf "replay assigned handle %d, log says %d"
                    (Dynamic.handle_id h) handle));
          (match Sharded.shard_of_handle store h with
          | Some s when s <> op.shard ->
              raise
                (Divergence
                   (Printf.sprintf
                      "handle %d recovered into shard %d but was logged by \
                       shard %d"
                      handle s op.shard))
          | _ -> ());
          incr applied;
          verify_at op.seq
      | Wal.Delete handle | Wal.Sdelete { handle; _ } ->
          (match Sharded.delete store (Dynamic.handle_of_id handle) with
          | () -> ()
          | exception Not_found ->
              raise
                (Divergence
                   (Printf.sprintf "replay deletes unknown handle %d" handle)));
          incr applied;
          verify_at op.seq
      | Wal.Check _ ->
          (* readers keep fingerprints out of the op list *)
          assert false)
    merged.ops;
  !applied

(* The one recovery driver: restore the newest snapshot that decodes
   and validates, replay the surviving ops past it with every check,
   then reopen each log at its keep boundary — or rewrite the logs when
   the snapshot is ahead of everything that survived or no log did. *)
let recover ~wal ~fsync ~domains ~t0 (logs : logs) =
  let merged = logs.merged and base = logs.params.Wal.base_seq in
  let snapshot =
    Snapshot.newest ~wal ~min_seq:base (fun st ->
        match Sharded.restore ?domains ~shards:logs.shards st with
        | store -> Some store
        | exception Invalid_argument _ -> None)
  in
  let start =
    match snapshot with
    | Some (seq, store) -> Ok (Some seq, store)
    | None when base > 0 ->
        Error
          (Printf.sprintf
             "%s: %s at op %d but no usable snapshot covers the gap" wal
             (if logs.manifest then "shard logs start" else "log starts")
             base)
    | None ->
        let p = logs.params in
        Ok
          ( None,
            Sharded.create ~cfg:p.Wal.cfg ~radius:p.Wal.radius ?domains
              ~dim:p.Wal.dim ~shards:logs.shards () )
  in
  Result.map
    (fun (snapshot_seq, store) ->
      let from_seq = Option.value snapshot_seq ~default:base in
      (* The starting state is ahead of every surviving log prefix
         (e.g. bit rot destroyed a record after the snapshot was taken),
         or no log survives at all: it is the longest surviving prefix,
         so adopt it and rewrite the logs from it. *)
      let rewrite = from_seq > merged.seq_end || logs.lost in
      let replayed, seq, writers =
        if rewrite then
          ( 0,
            from_seq,
            create_logs ~wal ~fsync ~manifest:logs.manifest store
              ~base_seq:from_seq )
        else begin
          let replayed = replay store merged ~from_seq in
          let writers =
            Array.init logs.shards (fun k ->
                let path = log_path ~wal ~manifest:logs.manifest k in
                match merged.keep.(k) with
                | 0, _ ->
                    (* Unreadable from the header down: rewrite it in
                       place (its surviving ops, if any, lie beyond the
                       merged prefix). *)
                    Wal.create path (params_of store ~base_seq:base) ~fsync
                | valid_bytes, _ -> Wal.reopen path ~valid_bytes ~fsync)
          in
          if logs.rebuild_manifest then
            Shard_wal.write_manifest wal
              { Shard_wal.shards = logs.shards; params = logs.params };
          (replayed, merged.seq_end, writers)
        end
      in
      let kept = Array.fold_left (fun acc (b, _) -> acc + b) 0 merged.keep in
      (* A rewritten manifest layout reports every byte it replaced; a
         rewritten single log reports only its corrupt suffix. *)
      let truncated_bytes =
        max 0
          (if rewrite && logs.manifest then logs.bytes else logs.bytes - kept)
      in
      Obs.incr c_runs;
      Obs.add c_replayed replayed;
      Obs.add c_truncated truncated_bytes;
      Obs.add c_shard_recovery_ms
        (int_of_float ((Unix.gettimeofday () -. t0) *. 1000.));
      ( store,
        writers,
        {
          snapshot_seq;
          replayed;
          seq;
          truncated_bytes;
          corruption = merged.corruption;
          wal_rewritten = rewrite;
        } ))
    start

(* {1 Opening} *)

let open_ ~wal ?shards ?domains ?(snapshot_every = 1000)
    ?(fsync = Wal.Interval 64) ?(dim = 2) ?(radius = 1.)
    ?(cfg = Config.default) () =
  let t0 = Unix.gettimeofday () in
  let make ~manifest store writers (recovery : recovery option) =
    let seq = match recovery with Some r -> r.seq | None -> 0 in
    let t =
      {
        store;
        writers;
        manifest;
        wal;
        snapshot_every;
        seq;
        last_snapshot_seq = seq;
        snapshot_crc = None;
        closed = false;
        recovery;
      }
    in
    install_hook t;
    Ok t
  in
  let fresh ~manifest shards =
    let store = Sharded.create ~cfg ~radius ?domains ~dim ~shards () in
    make ~manifest store
      (create_logs ~wal ~fsync ~manifest store ~base_seq:0)
      None
  in
  let recovered ~manifest read =
    match recover ~wal ~fsync ~domains ~t0 (read ()) with
    | Ok (store, writers, r) -> make ~manifest store writers (Some r)
    | Error _ as e -> e
    | exception Divergence msg ->
        Error
          (Printf.sprintf "%s: %sreplay divergence: %s" wal
             (if manifest then "sharded " else "")
             msg)
  in
  let lost ~manifest shards why () =
    lost_logs ~wal ~manifest ~shards
      { Wal.dim; radius; cfg; base_seq = 0 }
      ~why
  in
  (* A vanished layout with a decodable snapshot is still a crash to
     recover from, not a fresh session. *)
  let fresh_unless_snapshot ~manifest shards why =
    if Option.is_none (Snapshot.newest ~wal ~min_seq:0 (fun _ -> Some ()))
    then fresh ~manifest shards
    else recovered ~manifest (lost ~manifest shards why)
  in
  let single () =
    match Wal.scan wal with
    | Wal.Scan sc ->
        recovered ~manifest:false (fun () -> single_logs ~wal sc)
    | Wal.Foreign_file ->
        Error
          (Printf.sprintf
             "%s exists but is not a MaxRS WAL; refusing to overwrite it" wal)
    | Wal.Torn_header ->
        recovered ~manifest:false
          (lost ~manifest:false 1 "torn or corrupt header")
    | Wal.No_file | Wal.Empty_file ->
        fresh_unless_snapshot ~manifest:false 1 "log missing or empty"
  in
  let from_manifest ~rebuild_manifest m =
    recovered ~manifest:true (fun () ->
        manifest_logs ~wal ~domains ~rebuild_manifest m)
  in
  let from_shard_files () =
    Option.map
      (from_manifest ~rebuild_manifest:true)
      (manifest_from_shard_files wal)
  in
  match Shard_wal.read_manifest wal with
  | Shard_wal.Manifest m ->
      (* The on-disk layout wins over the [shards] argument: shard
         count is a persistent property of the session. *)
      from_manifest ~rebuild_manifest:false m
  | Shard_wal.Corrupt_manifest -> (
      match from_shard_files () with
      | Some r -> r
      | None ->
          Error
            (Printf.sprintf
               "%s: corrupt shard manifest and no readable shard log to \
                rebuild it from"
               wal))
  | Shard_wal.Not_manifest -> (
      match shards with
      | Some _ ->
          Error
            (Printf.sprintf
               "%s exists but is not a shard manifest; refusing to shard \
                over it"
               wal)
      | None -> single ())
  | Shard_wal.No_manifest -> (
      match shards with
      | Some k when k < 1 ->
          Error (Printf.sprintf "shards must be >= 1 (got %d)" k)
      | _ -> (
          (* Shard logs without a manifest: recover them and restore
             the manifest. Otherwise the layout is [shards]' to make. *)
          match (from_shard_files (), shards) with
          | Some r, _ -> r
          | None, Some k ->
              fresh_unless_snapshot ~manifest:true k "shard logs missing"
          | None, None -> single ()))

let recovery t = t.recovery
let seq t = t.seq
let wal_path t = t.wal
let shards t = Sharded.shards t.store
let state t = Sharded.state t.store

let snapshot_now t =
  if t.closed then invalid_arg "Session.snapshot_now: closed session";
  (* Flush first so the durable log is never behind the snapshot —
     otherwise every crash right after a snapshot would force a log
     rewrite on recovery. *)
  Array.iter Wal.flush t.writers;
  (* The snapshot's checksum pass yields the state's fingerprint, so a
     manifest stamps it without capturing or encoding a second time. *)
  let _, crc = Snapshot.write_crc ~wal:t.wal ~seq:t.seq (state t) in
  Snapshot.prune ~wal:t.wal ~keep:2;
  if t.manifest then stamp t.writers ~seq:t.seq crc;
  t.last_snapshot_seq <- t.seq;
  t.snapshot_crc <- Some crc

let maybe_snapshot t =
  if t.snapshot_every > 0 && t.seq - t.last_snapshot_seq >= t.snapshot_every
  then snapshot_now t

let insert t ?weight p =
  if t.closed then invalid_arg "Session.insert: closed session";
  let h = Sharded.insert t.store ?weight p in
  maybe_snapshot t;
  h

let delete t h =
  if t.closed then invalid_arg "Session.delete: closed session";
  Sharded.delete t.store h;
  maybe_snapshot t

let best t = Sharded.best t.store
let size t = Sharded.size t.store
let flush t = if not t.closed then Array.iter Wal.flush t.writers

let close t =
  if not t.closed then begin
    (* A final fingerprint anchor: a clean close leaves every shard log
       attesting to the same state. With no op since this session's
       last snapshot, that snapshot's fingerprint is the state's. *)
    if t.manifest then
      stamp t.writers ~seq:t.seq
        (match t.snapshot_crc with
        | Some crc when t.last_snapshot_seq = t.seq -> crc
        | _ -> Codec.state_crc (state t));
    Array.iter Wal.close t.writers;
    Sharded.close t.store;
    t.closed <- true
  end
