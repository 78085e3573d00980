(* Full-state snapshots: sidecar files next to the WAL.

   A snapshot of the state after op [seq] lives at [<wal>.snap.<seq>]:
   {v
     magic   8 bytes  "MXSNAP01"
     u32le   crc32(payload)
     payload          i64 seq | encoded Dynamic.State
   v}

   The file is built in one buffer of exactly its size: the codec
   leaves the 20 header bytes free, the payload CRC is computed in
   place and patched into its slot. Writes are atomic ([Atomic_file]:
   write to [<target>.tmp], fsync, rename into place, fsync the
   directory). A crash mid-write leaves at worst a stale .tmp (ignored
   by recovery) — never a half-written snapshot under the real name.
   Recovery decodes candidates newest-first and skips any that fail
   the checksum, the decode or the caller's restore, falling back to
   the previous one (or to pure WAL replay); [newest] counts each skip
   as [snapshot.skipped_corrupt]. *)

module Obs = Maxrs_obs.Obs
module Dynamic = Maxrs.Dynamic

let c_writes = Obs.counter "snapshot.writes"
let c_bytes = Obs.counter "snapshot.bytes"
let c_skipped = Obs.counter "snapshot.skipped_corrupt"

let magic = "MXSNAP01"

let path ~wal ~seq = Printf.sprintf "%s.snap.%d" wal seq

let write ~wal ~seq state =
  let target = path ~wal ~seq in
  let data = Codec.encode_state_bytes ~reserve:20 state in
  Bytes.blit_string magic 0 data 0 8;
  Bytes.set_int64_le data 12 (Int64.of_int seq);
  let crc =
    Crc32.of_substring (Bytes.unsafe_to_string data) ~pos:12
      ~len:(Bytes.length data - 12)
  in
  Bytes.set_int32_le data 8 (Int32.of_int crc);
  Atomic_file.write target data;
  Obs.incr c_writes;
  Obs.add c_bytes (Bytes.length data);
  target

let candidates ~wal =
  let dir = Filename.dirname wal in
  let prefix = Filename.basename wal ^ ".snap." in
  let plen = String.length prefix in
  (match Sys.readdir dir with
  | entries -> entries
  | exception Sys_error _ -> [||])
  |> Array.to_list
  |> List.filter_map (fun name ->
         if
           String.length name > plen
           && String.sub name 0 plen = prefix
           && not (Filename.check_suffix name ".tmp")
         then
           match int_of_string_opt (String.sub name plen (String.length name - plen)) with
           | Some seq when seq >= 0 -> Some (seq, Filename.concat dir name)
           | _ -> None
         else None)
  |> List.sort (fun (a, _) (b, _) -> Int.compare b a)

let load_file file =
  let data = In_channel.with_open_bin file In_channel.input_all in
  if String.length data < 12 || String.sub data 0 8 <> magic then None
  else
    let crc = Int32.to_int (String.get_int32_le data 8) land 0xFFFFFFFF in
    let plen = String.length data - 12 in
    if Crc32.of_substring data ~pos:12 ~len:plen <> crc then None
    else
      let r = Codec.reader ~pos:12 data in
      match
        let seq = Codec.r_int r in
        let state = Codec.r_state r in
        if not (Codec.at_end r) then Codec.malformed "trailing bytes";
        (seq, state)
      with
      | seq, state -> Some (seq, state)
      | exception Codec.Malformed _ -> None

let load_all ~wal =
  candidates ~wal
  |> List.filter_map (fun (seq, file) ->
         match load_file file with
         | Some (s, state) when s = seq -> Some (seq, state, file)
         | _ -> None)

let newest ~wal ~min_seq f =
  let rec skip rest =
    Obs.incr c_skipped;
    go rest
  and go = function
    | (seq, file) :: rest when seq >= min_seq -> (
        match load_file file with
        | Some (s, state) when s = seq -> (
            match f state with Some v -> Some (seq, v) | None -> skip rest)
        | _ -> skip rest)
    | _ -> None
  in
  go (candidates ~wal)

let prune ~wal ~keep =
  candidates ~wal
  |> List.iteri (fun i (_, file) ->
         if i >= keep then try Sys.remove file with Sys_error _ -> ())
