(* Write-ahead log: an append-only file of length-prefixed,
   CRC-32-checksummed frames.

   Layout:
   {v
     magic   8 bytes  "MXWAL001"
     frame*           u32le payload length | u32le crc32(payload) | payload
   v}

   The first frame is always a [Params] record (tag 0) fixing the
   structure parameters and the log's base sequence number; every later
   frame is one applied operation ([Insert]/[Delete]) or an [Epoch]
   consistency marker. Each frame is assembled in memory and written
   with a single [write], so under normal operation frames are never
   interleaved; a crash can still tear the final frame, which the
   scanner detects by length/checksum and cuts off — recovery always
   lands on the longest valid prefix. *)

module Obs = Maxrs_obs.Obs
module Config = Maxrs.Config

let c_records = Obs.counter "wal.records"
let c_bytes = Obs.counter "wal.bytes"
let c_fsyncs = Obs.counter "wal.fsyncs"

let magic = "MXWAL001"

(* A frame larger than this is treated as corruption: a damaged length
   field must not trigger a giant allocation. Real frames are tiny
   (tens of bytes for ops, ~100 for params). *)
let max_frame_bytes = 1 lsl 24

type fsync_policy = Always | Interval of int | Never

type params = {
  dim : int;
  radius : float;
  cfg : Config.t;
  base_seq : int;
      (* sequence number of the first op recorded in this file: ops
         1..base_seq live only in snapshots (the log was rewritten
         after recovering from a snapshot newer than the log) *)
}

type record =
  | Insert of { handle : int; point : float array; weight : float }
  | Delete of int
  | Epoch of { epochs : int; n0 : int }
  | Sinsert of { seq : int; handle : int; point : float array; weight : float }
  | Sdelete of { seq : int; handle : int }
  | Check of { seq : int; state_crc : int }

type corruption =
  | Torn of { offset : int }
  | Checksum of { offset : int }
  | Malformed_record of { offset : int; reason : string }

let corruption_to_string = function
  | Torn { offset } -> Printf.sprintf "torn frame at byte %d" offset
  | Checksum { offset } -> Printf.sprintf "checksum mismatch at byte %d" offset
  | Malformed_record { offset; reason } ->
      Printf.sprintf "malformed record at byte %d: %s" offset reason

type scan = {
  params : params;
  records : record list;
  offsets : int array;
      (* offsets.(i) = file offset just past record i — the crash
         harness uses these as cut points *)
  valid_bytes : int;
  corruption : corruption option;
}

type scan_result =
  | Scan of scan
  | No_file
  | Empty_file
  | Torn_header
  | Foreign_file

(* {1 Frame codec} *)

type frame = F_params of params | F_op of record

let encode_payload fr =
  let b = Buffer.create 64 in
  (match fr with
  | F_params p ->
      Codec.u8 b 0;
      Codec.int_ b p.dim;
      Codec.f64 b p.radius;
      Codec.config b p.cfg;
      Codec.int_ b p.base_seq
  | F_op (Insert { handle; point; weight }) ->
      Codec.u8 b 1;
      Codec.int_ b handle;
      Codec.float_array b point;
      Codec.f64 b weight
  | F_op (Delete handle) ->
      Codec.u8 b 2;
      Codec.int_ b handle
  | F_op (Epoch { epochs; n0 }) ->
      Codec.u8 b 3;
      Codec.int_ b epochs;
      Codec.int_ b n0
  | F_op (Sinsert { seq; handle; point; weight }) ->
      Codec.u8 b 4;
      Codec.int_ b seq;
      Codec.int_ b handle;
      Codec.float_array b point;
      Codec.f64 b weight
  | F_op (Sdelete { seq; handle }) ->
      Codec.u8 b 5;
      Codec.int_ b seq;
      Codec.int_ b handle
  | F_op (Check { seq; state_crc }) ->
      Codec.u8 b 6;
      Codec.int_ b seq;
      Codec.int_ b state_crc);
  Buffer.contents b

let decode_payload payload =
  let r = Codec.reader payload in
  let fr =
    match Codec.r_u8 r with
    | 0 ->
        let dim = Codec.r_int r in
        let radius = Codec.r_f64 r in
        let cfg = Codec.r_config r in
        let base_seq = Codec.r_int r in
        F_params { dim; radius; cfg; base_seq }
    | 1 ->
        let handle = Codec.r_int r in
        let point = Codec.r_float_array r "insert point" in
        let weight = Codec.r_f64 r in
        F_op (Insert { handle; point; weight })
    | 2 -> F_op (Delete (Codec.r_int r))
    | 3 ->
        let epochs = Codec.r_int r in
        let n0 = Codec.r_int r in
        F_op (Epoch { epochs; n0 })
    | 4 ->
        let seq = Codec.r_int r in
        let handle = Codec.r_int r in
        let point = Codec.r_float_array r "sinsert point" in
        let weight = Codec.r_f64 r in
        F_op (Sinsert { seq; handle; point; weight })
    | 5 ->
        let seq = Codec.r_int r in
        let handle = Codec.r_int r in
        F_op (Sdelete { seq; handle })
    | 6 ->
        let seq = Codec.r_int r in
        let state_crc = Codec.r_int r in
        F_op (Check { seq; state_crc })
    | t -> Codec.malformed "unknown record tag %d" t
  in
  if not (Codec.at_end r) then Codec.malformed "trailing bytes in record";
  fr

let frame_bytes fr =
  let payload = encode_payload fr in
  let b = Buffer.create (String.length payload + 8) in
  Buffer.add_int32_le b (Int32.of_int (String.length payload));
  Buffer.add_int32_le b (Int32.of_int (Crc32.of_string payload));
  Buffer.add_string b payload;
  Buffer.to_bytes b

let record_size r = Bytes.length (frame_bytes (F_op r))

let u32_at data pos = Int32.to_int (String.get_int32_le data pos) land 0xFFFFFFFF

(* Decode the frame starting at [pos]; [Ok (frame, next_pos)] or the
   corruption that stops the scan. *)
let read_frame data pos =
  let len = String.length data in
  if pos + 8 > len then Error (Torn { offset = pos })
  else
    let plen = u32_at data pos in
    let crc = u32_at data (pos + 4) in
    if plen > max_frame_bytes then Error (Checksum { offset = pos })
    else if pos + 8 + plen > len then Error (Torn { offset = pos })
    else
      let payload = String.sub data (pos + 8) plen in
      if Crc32.of_string payload <> crc then Error (Checksum { offset = pos })
      else
        match decode_payload payload with
        | fr -> Ok (fr, pos + 8 + plen)
        | exception Codec.Malformed reason ->
            Error (Malformed_record { offset = pos; reason })

(* {1 Scanning} *)

let read_file path =
  In_channel.with_open_bin path (fun ic -> In_channel.input_all ic)

let is_magic_prefix s =
  String.length s <= String.length magic
  && s = String.sub magic 0 (String.length s)

let scan_string data =
  let len = String.length data in
  if len = 0 then Empty_file
  else if len < 8 || String.sub data 0 8 <> magic then
    if is_magic_prefix (String.sub data 0 (min len 8)) then Torn_header
    else Foreign_file
  else
    match read_frame data 8 with
    | Error _ | Ok (F_op _, _) -> Torn_header
    | Ok (F_params params, pos0) ->
        let rec go pos acc offs =
          if pos >= len then
            {
              params;
              records = List.rev acc;
              offsets = Array.of_list (List.rev offs);
              valid_bytes = pos;
              corruption = None;
            }
          else
            match read_frame data pos with
            | Ok (F_op r, next) -> go next (r :: acc) (next :: offs)
            | Ok (F_params _, _) ->
                {
                  params;
                  records = List.rev acc;
                  offsets = Array.of_list (List.rev offs);
                  valid_bytes = pos;
                  corruption =
                    Some
                      (Malformed_record
                         { offset = pos; reason = "params record after header" });
                }
            | Error c ->
                {
                  params;
                  records = List.rev acc;
                  offsets = Array.of_list (List.rev offs);
                  valid_bytes = pos;
                  corruption = Some c;
                }
        in
        Scan (go pos0 [] [])

let scan path =
  if not (Sys.file_exists path) then No_file else scan_string (read_file path)

(* {1 Writing} *)

type writer = {
  fd : Unix.file_descr;
  policy : fsync_policy;
  mutable unsynced : int;  (* appends since the last fsync *)
  mutable closed : bool;
}

let do_fsync w =
  if w.unsynced > 0 then begin
    Unix.fsync w.fd;
    Obs.incr c_fsyncs;
    w.unsynced <- 0
  end

(* Complete the whole buffer even when [write(2)] returns short: a
   single [write] is only guaranteed atomic for small pipe writes, and
   this helper is also the transmit path for sockets (the network
   server), where short writes are routine. [EINTR] retries
   immediately; [EAGAIN]/[EWOULDBLOCK] (non-blocking fds) waits for
   writability before retrying, so the loop never spins. *)
let write_all fd b =
  let len = Bytes.length b in
  let n = ref 0 in
  while !n < len do
    match Unix.write fd b !n (len - !n) with
    | k -> n := !n + k
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ignore (Unix.select [] [ fd ] [] 0.05)
  done

let create path params ~fsync =
  let fd = Unix.openfile path [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let frame = frame_bytes (F_params params) in
  let b = Bytes.cat (Bytes.of_string magic) frame in
  write_all fd b;
  let w = { fd; policy = fsync; unsynced = 1; closed = false } in
  (* The header is always made durable immediately, whatever the
     policy: an unreadable header would cost the whole log. *)
  do_fsync w;
  Obs.add c_bytes (Bytes.length b);
  w

let reopen path ~valid_bytes ~fsync =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  (* Cut off any trailing garbage past the valid prefix so new frames
     never follow damaged bytes. *)
  Unix.ftruncate fd valid_bytes;
  ignore (Unix.lseek fd valid_bytes Unix.SEEK_SET);
  let w = { fd; policy = fsync; unsynced = 1; closed = false } in
  do_fsync w;
  w

let append w r =
  if w.closed then invalid_arg "Wal.append: writer is closed";
  let frame = frame_bytes (F_op r) in
  write_all w.fd frame;
  w.unsynced <- w.unsynced + 1;
  Obs.incr c_records;
  Obs.add c_bytes (Bytes.length frame);
  (match w.policy with
  | Always -> do_fsync w
  | Interval n -> if w.unsynced >= n then do_fsync w
  | Never -> ())

let flush w = if not w.closed then do_fsync w

let close w =
  if not w.closed then begin
    (* Terminal fsync even under [Never]: a clean close should leave a
       durable log; [Never] only opts out of per-append syncing. *)
    do_fsync w;
    Unix.close w.fd;
    w.closed <- true
  end
