(* Sharded WAL layout: a shard manifest at the session's base path plus
   one ordinary WAL per shard beside it.

   {v
     <base>           manifest: magic "MXSHRD01" | u32le crc32 | payload
                      payload = shards | dim | radius | cfg | base_seq
     <base>.shard<k>  standard Wal file of shard k's op subsequence
   v}

   The manifest is written atomically ([Atomic_file]: tmp + fsync +
   rename + directory fsync) and LAST at creation time — it is the
   commit point: a crash before the rename leaves no manifest, so
   recovery never sees a half-created layout.
   Because every shard log's own params frame also records
   [base_seq] (and the shard files are enumerable), the manifest is
   mostly a layout marker: a corrupt manifest is rebuilt from the shard
   headers rather than failing recovery.

   Sharded ops carry their global sequence number explicitly
   ([Wal.Sinsert]/[Wal.Sdelete]), because each shard log holds only a
   subsequence. Recovery scans all shard logs (in parallel — scans are
   read-only and independent) and merges them back into the global
   order, keeping the longest contiguous sequence prefix: an op past a
   gap (its predecessor lost to a torn/corrupt record in some {e other}
   shard's log) is dropped even though its own frame is intact, exactly
   as if the crash had happened one op earlier. That rule makes
   parallel multi-log recovery land on the same bit-identical prefix
   contract as the single-log session. *)

module Parallel = Maxrs_parallel.Parallel

let magic = "MXSHRD01"
let shard_path base k = Printf.sprintf "%s.shard%d" base k

(* Shard files present on disk: the consecutive run from 0 (shard logs
   are only ever created as a full set). *)
let shard_files_present base =
  let rec go k = if Sys.file_exists (shard_path base k) then go (k + 1) else k in
  go 0

(* The shard count plus the params every shard log's header repeats. *)
type manifest = { shards : int; params : Wal.params }

let encode_manifest m =
  let payload =
    let b = Buffer.create 64 in
    Codec.int_ b m.shards;
    Codec.int_ b m.params.Wal.dim;
    Codec.f64 b m.params.Wal.radius;
    Codec.config b m.params.Wal.cfg;
    Codec.int_ b m.params.Wal.base_seq;
    Buffer.contents b
  in
  let b = Buffer.create (String.length payload + 12) in
  Buffer.add_string b magic;
  Buffer.add_int32_le b (Int32.of_int (Crc32.of_string payload));
  Buffer.add_string b payload;
  Buffer.to_bytes b

let write_manifest path m = Atomic_file.write path (encode_manifest m)

type manifest_result =
  | Manifest of manifest
  | No_manifest  (** no file at the path *)
  | Not_manifest  (** a file exists but is not a shard manifest *)
  | Corrupt_manifest  (** right magic, damaged payload *)

let read_manifest path =
  if not (Sys.file_exists path) then No_manifest
  else
    let data =
      In_channel.with_open_bin path (fun ic -> In_channel.input_all ic)
    in
    if String.length data < 12 || String.sub data 0 8 <> magic then
      Not_manifest
    else
      let crc = Int32.to_int (String.get_int32_le data 8) land 0xFFFFFFFF in
      let payload = String.sub data 12 (String.length data - 12) in
      if Crc32.of_string payload <> crc then Corrupt_manifest
      else
        match
          Codec.protect
            (fun r ->
              let shards = Codec.r_int r in
              let dim = Codec.r_int r in
              let radius = Codec.r_f64 r in
              let cfg = Codec.r_config r in
              let base_seq = Codec.r_int r in
              if not (Codec.at_end r) then
                Codec.malformed "trailing bytes in manifest";
              { shards; params = { Wal.dim; radius; cfg; base_seq } })
            payload
        with
        | Ok m
          when m.shards >= 1 && m.params.Wal.dim >= 1
               && m.params.Wal.base_seq >= 0 ->
            Manifest m
        | Ok _ | Error _ -> Corrupt_manifest

(* {1 Parallel scan} *)

(* One shard log's scan, reduced to what the merge needs. A shard whose
   log is missing, empty, torn at the header, or inconsistent with the
   session base contributes no records but does not abort recovery: the
   merged-prefix rule charges the damage against the global sequence
   instead. *)
type shard_scan = { scan : Wal.scan option; damaged : string option }

let scan_shard base k ~base_seq =
  match Wal.scan (shard_path base k) with
  | Wal.Scan sc when sc.Wal.params.Wal.base_seq = base_seq ->
      { scan = Some sc; damaged = None }
  | Wal.Scan sc ->
      {
        scan = None;
        damaged =
          Some
            (Printf.sprintf
               "shard %d: log base %d does not match session base %d" k
               sc.Wal.params.Wal.base_seq base_seq);
      }
  | Wal.No_file ->
      { scan = None; damaged = Some (Printf.sprintf "shard %d: log missing" k) }
  | Wal.Empty_file | Wal.Torn_header ->
      {
        scan = None;
        damaged = Some (Printf.sprintf "shard %d: unreadable log header" k);
      }
  | Wal.Foreign_file ->
      { scan = None; damaged = Some (Printf.sprintf "shard %d: foreign file" k) }

(* Scan every shard log concurrently on a scratch pool. Scans are pure
   reads of distinct files, so any interleaving yields the same array;
   [Parallel.map] places results by index. *)
let scan_all base ~shards ~base_seq ~domains =
  Parallel.with_pool ~domains (fun pool ->
      Parallel.map pool ~n:shards (fun k -> scan_shard base k ~base_seq))

(* {1 Merging}

   Merge the per-shard scans back into global sequence order and find
   the longest contiguous prefix [base_seq+1 .. seq_end]. *)

type merged_op = { seq : int; shard : int; record : Wal.record }

type merged = {
  seq_end : int;
  ops : merged_op list;  (** contiguous prefix ops, ascending seq *)
  checks : (int * int) list;
      (** (seq, state_crc) fingerprints with seq <= seq_end, ascending *)
  keep : (int * int) array;
      (** per shard: (valid-prefix bytes, records kept) for the reopen *)
  corruption : string option;
}

(* Offset of the byte just past the header (magic + params frame),
   derived from the deterministic frame encoding — where a reopen cuts
   a shard whose every record is dropped. *)
let header_end (sc : Wal.scan) =
  match sc.Wal.records with
  | [] -> sc.Wal.valid_bytes
  | r0 :: _ ->
      if Array.length sc.Wal.offsets = 0 then sc.Wal.valid_bytes
      else sc.Wal.offsets.(0) - Wal.record_size r0

let record_seq = function
  | Wal.Sinsert { seq; _ } | Wal.Sdelete { seq; _ } | Wal.Check { seq; _ } ->
      Some seq
  | Wal.Insert _ | Wal.Delete _ | Wal.Epoch _ -> None

let merge ~base_seq (scans : shard_scan array) =
  (* Collect every sequenced record; a solo-format (unsequenced) record
     inside a shard log means the file was written by something else —
     stop trusting that shard's records at that point. *)
  let all = ref [] in
  let malformed = ref None in
  Array.iteri
    (fun k s ->
      match s.scan with
      | None -> ()
      | Some sc ->
          let trusted = ref true in
          List.iteri
            (fun i r ->
              if !trusted then
                match record_seq r with
                | Some seq -> all := { seq; shard = k; record = r } :: !all
                | None ->
                    trusted := false;
                    if !malformed = None then
                      malformed :=
                        Some
                          (Printf.sprintf
                             "shard %d: unsequenced record at index %d" k i))
            sc.Wal.records)
    scans;
  let all = List.stable_sort (fun a b -> Int.compare a.seq b.seq) (List.rev !all) in
  let is_check op = match op.record with Wal.Check _ -> true | _ -> false in
  (* Pass 1: the contiguous op-seq run. Check records share the seq of
     the op they follow (base_seq right after a rewrite) and never
     advance the run. *)
  let seq_end = ref base_seq in
  let prefix = ref [] in
  let dup = ref None in
  List.iter
    (fun op ->
      if not (is_check op) then
        if op.seq = !seq_end + 1 then begin
          seq_end := op.seq;
          prefix := op :: !prefix
        end
        else if op.seq <= !seq_end && !dup = None then
          dup :=
            Some
              (Printf.sprintf "duplicate op seq %d (shard %d)" op.seq op.shard))
    all;
  let seq_end = !seq_end in
  (* Pass 2: fingerprints that fall inside the recovered prefix. *)
  let checks =
    List.filter_map
      (fun op ->
        match op.record with
        | Wal.Check { seq; state_crc } when seq <= seq_end ->
            Some (seq, state_crc)
        | _ -> None)
      all
    |> List.sort_uniq (fun (a, _) (b, _) -> Int.compare a b)
  in
  (* Keep boundary per shard: the prefix of its records whose seq is
     within the merged prefix. Seqs in one shard log are nondecreasing,
     so this is a clean cut. *)
  let keep =
    Array.map
      (fun s ->
        match s.scan with
        | None -> (0, 0)
        | Some sc ->
            let m = ref 0 and i = ref 0 in
            List.iter
              (fun r ->
                (match record_seq r with
                | Some seq when seq <= seq_end && !i = !m -> m := !i + 1
                | Some _ | None -> ());
                incr i)
              sc.Wal.records;
            let bytes =
              if !m = 0 then header_end sc else sc.Wal.offsets.(!m - 1)
            in
            (bytes, !m))
      scans
  in
  let first_damage =
    Array.fold_left
      (fun acc s -> match acc with Some _ -> acc | None -> s.damaged)
      None scans
  in
  let first_scan_corruption =
    let c = ref None and k = ref 0 in
    Array.iter
      (fun s ->
        (match (s.scan, !c) with
        | Some sc, None -> (
            match sc.Wal.corruption with
            | Some cc ->
                c :=
                  Some
                    (Printf.sprintf "shard %d: %s" !k
                       (Wal.corruption_to_string cc))
            | None -> ())
        | _ -> ());
        incr k)
      scans;
    !c
  in
  let corruption =
    List.find_map Fun.id [ !dup; !malformed; first_damage; first_scan_corruption ]
  in
  {
    seq_end;
    ops = List.rev !prefix;
    checks;
    keep;
    corruption;
  }
