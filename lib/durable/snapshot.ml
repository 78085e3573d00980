(* Full-state snapshots: sidecar files next to the WAL.

   A snapshot of the state after op [seq] lives at [<wal>.snap.<seq>]:
   {v
     magic   8 bytes  "MXSNAP02"
     u32le   crc32(state | seq)
     state            encoded Dynamic.State
     i64     seq
   v}

   The seq follows the state so that the file's CRC, run over the state
   and then the seq, passes through the state's own CRC — the
   fingerprint {!Codec.state_crc} gives and a shard manifest journals —
   on its way: [write_crc] hands it back without a second pass. The
   file is built in one buffer of exactly its size: the codec leaves
   the 12 header and 8 trailer bytes free, and the CRC is computed in
   place and patched into its slot. Writes are atomic ([Atomic_file]:
   write to [<target>.tmp], fsync, rename into place, fsync the
   directory). A crash mid-write leaves at worst a stale .tmp (ignored
   by recovery) — never a half-written snapshot under the real name.
   Recovery decodes candidates newest-first and skips any that fail
   the magic, the checksum, the decode (which includes the position
   CRC of every grid, see [Codec]) or the caller's restore, falling
   back to the previous one (or to pure WAL replay); [newest] counts
   each skip as [snapshot.skipped_corrupt]. *)

module Obs = Maxrs_obs.Obs
module Dynamic = Maxrs.Dynamic

let c_writes = Obs.counter "snapshot.writes"
let c_bytes = Obs.counter "snapshot.bytes"
let c_skipped = Obs.counter "snapshot.skipped_corrupt"

let magic = "MXSNAP02"
let header = 12

let path ~wal ~seq = Printf.sprintf "%s.snap.%d" wal seq

let write_crc ~wal ~seq state =
  let target = path ~wal ~seq in
  let data = Codec.encode_state_bytes ~reserve:header ~trailer:8 state in
  let stop = Bytes.length data - 8 in
  Bytes.blit_string magic 0 data 0 8;
  Bytes.set_int64_le data stop (Int64.of_int seq);
  let s = Bytes.unsafe_to_string data in
  let state_crc = Crc32.of_substring s ~pos:header ~len:(stop - header) in
  let crc = Crc32.update state_crc s ~pos:stop ~len:8 in
  Bytes.set_int32_le data 8 (Int32.of_int crc);
  Atomic_file.write target data;
  Obs.incr c_writes;
  Obs.add c_bytes (Bytes.length data);
  (target, state_crc)

let write ~wal ~seq state = fst (write_crc ~wal ~seq state)

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
  let len = String.length data in
  if len < header + 8 || String.sub data 0 8 <> magic then None
  else
    let crc = Int32.to_int (String.get_int32_le data 8) land 0xFFFFFFFF in
    if Crc32.of_substring data ~pos:header ~len:(len - header) <> crc then None
    else
      let r = Codec.reader ~pos:header data in
      match
        let state = Codec.r_state r in
        let seq = Codec.r_int r in
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
