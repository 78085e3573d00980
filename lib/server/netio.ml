(* Socket plumbing for the MaxRS daemon: addresses, connection setup,
   and deadline-bounded transmission of length-prefixed CRC-framed
   messages (the same [u32le len | u32le crc32 | payload] frame the WAL
   uses on disk).

   Everything here is total: a torn frame, a checksum mismatch, an
   absurd length field, a stalled peer or a mid-frame disconnect each
   come back as a structured {!error}, never an exception — the
   connection path of a daemon must not be crashable from the wire. *)

module Crc32 = Maxrs_durable.Crc32
module Obs = Maxrs_obs.Obs

(* {1 Addresses} *)

type addr = Unix_sock of string | Tcp of string * int

let addr_to_string = function
  | Unix_sock p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p

let addr_of_string s =
  let s = String.trim s in
  let strip prefix =
    let n = String.length prefix in
    if String.length s > n && String.sub s 0 n = prefix then
      Some (String.sub s n (String.length s - n))
    else None
  in
  match strip "unix:" with
  | Some p when p <> "" -> Ok (Unix_sock p)
  | Some _ -> Error "empty unix socket path"
  | None -> (
      if String.contains s '/' then Ok (Unix_sock s)
      else
        match String.rindex_opt s ':' with
        | None -> Error (Printf.sprintf "address %S: expected unix:PATH or HOST:PORT" s)
        | Some i -> (
            let host = String.sub s 0 i in
            let port = String.sub s (i + 1) (String.length s - i - 1) in
            match int_of_string_opt port with
            | Some p when p > 0 && p < 65536 ->
                Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
            | _ -> Error (Printf.sprintf "address %S: bad port %S" s port)))

let sockaddr_of = function
  | Unix_sock p -> Unix.ADDR_UNIX p
  | Tcp (host, port) ->
      let ip =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found | Invalid_argument _ -> Unix.inet_addr_loopback
      in
      Unix.ADDR_INET (ip, port)

let listen ?(backlog = 64) addr =
  match
    let domain =
      match addr with Unix_sock _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET
    in
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    (try
       (match addr with
       | Unix_sock p -> if Sys.file_exists p then Sys.remove p
       | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true);
       Unix.bind fd (sockaddr_of addr);
       Unix.listen fd backlog
     with e ->
       Unix.close fd;
       raise e);
    fd
  with
  | fd -> Ok fd
  | exception Unix.Unix_error (e, fn, _) ->
      Error
        (Printf.sprintf "cannot listen on %s: %s (%s)" (addr_to_string addr)
           (Unix.error_message e) fn)
  | exception Sys_error m -> Error m

let connect addr =
  match
    let domain =
      match addr with Unix_sock _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET
    in
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (sockaddr_of addr)
     with e ->
       Unix.close fd;
       raise e);
    fd
  with
  | fd -> Ok fd
  | exception Unix.Unix_error (e, _, _) ->
      Error
        (Printf.sprintf "cannot connect to %s: %s" (addr_to_string addr)
           (Unix.error_message e))

(* {1 Errors} *)

type error =
  | Timeout  (** the peer did not produce/accept bytes within the deadline *)
  | Closed  (** clean EOF at a frame boundary *)
  | Torn  (** EOF mid-frame: the peer disconnected while transmitting *)
  | Oversized of int  (** advertised payload length above the cap *)
  | Crc_mismatch  (** frame arrived complete but corrupt *)
  | Sys of string  (** unexpected socket-level error *)

let error_to_string = function
  | Timeout -> "timeout"
  | Closed -> "connection closed"
  | Torn -> "torn frame (peer disconnected mid-frame)"
  | Oversized n -> Printf.sprintf "oversized frame (%d bytes advertised)" n
  | Crc_mismatch -> "frame checksum mismatch"
  | Sys m -> "socket error: " ^ m

let now () = Unix.gettimeofday ()

(* {1 Receiving}

   The frame rules, kept once for both readers: a frame's first byte is
   awaited until [idle] runs out, and from the moment it arrives the
   rest of the frame must come within [frame] seconds (a slow-loris
   writer is cut off even when it trickles nothing); a length field
   above [max_frame] is refused before anything is allocated for it;
   EOF between frames is [Closed], EOF inside one [Torn]; a complete
   frame whose checksum does not match is [Crc_mismatch]. *)

let header_len = 8

(* What a served connection asks of the kernel, counted so a request's
   syscall cost can be gated; the fd-level calls below are not
   counted. *)
let c_reads = Obs.counter "netio.conn.reads"
let c_writes = Obs.counter "netio.conn.writes"
let c_waits = Obs.counter "netio.conn.waits"

(* A frame's deadline: [idle] from the call until its first byte, then
   [frame] from that byte. *)
type clock = { mutable deadline : float; frame : float; mutable started : bool }

let clock ~idle ~frame = { deadline = now () +. idle; frame; started = false }

let arrived c =
  if not c.started then begin
    c.started <- true;
    c.deadline <- now () +. c.frame
  end

(* Wait at most [timeout] for [fd] to become readable (or writable). *)
let ready ~count ?(write = false) fd timeout =
  if count then Obs.incr c_waits;
  let r, w = if write then ([], [ fd ]) else ([ fd ], []) in
  try
    match Unix.select r w [] timeout with [], [], _ -> false | _ -> true
  with Unix.Unix_error (Unix.EINTR, _, _) -> false

(* Read into [buf.[off .. off+room)] until at least [need] bytes have
   arrived, waiting for readability in short slices. Returns how many
   arrived. *)
let fill ~count fd c buf ~off ~need ~room =
  let got = ref 0 and err = ref None in
  while Option.is_none !err && !got < need do
    let remaining = c.deadline -. now () in
    if remaining <= 0. then err := Some Timeout
    else if ready ~count fd (Float.min remaining 0.25) then begin
      if count then Obs.incr c_reads;
      match Unix.read fd buf (off + !got) (room - !got) with
      | 0 -> err := Some (if c.started then Torn else Closed)
      | k ->
          arrived c;
          got := !got + k
      | exception
          Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
        ->
          ()
      | exception Unix.Unix_error (e, _, _) ->
          err := Some (Sys (Unix.error_message e))
    end
  done;
  match !err with None -> Ok !got | Some e -> Error e

(* The payload length and checksum in the header at [b.[off ..]]. *)
let header b off ~max_frame =
  let plen = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF in
  let crc = Int32.to_int (Bytes.get_int32_le b (off + 4)) land 0xFFFFFFFF in
  if plen > max_frame then Error (Oversized plen) else Ok (plen, crc)

let checked payload crc =
  if Crc32.of_string payload <> crc then Error Crc_mismatch else Ok payload

let ( let* ) = Result.bind

(* Receive one frame, reading no byte past it: the header in one pass,
   then the payload. *)
let recv ?(idle = 30.) ?(frame = 10.) ~max_frame fd =
  let c = clock ~idle ~frame in
  let hdr = Bytes.create header_len in
  let* _ =
    fill ~count:false fd c hdr ~off:0 ~need:header_len ~room:header_len
  in
  let* plen, crc = header hdr 0 ~max_frame in
  let payload = Bytes.create plen in
  let* _ = fill ~count:false fd c payload ~off:0 ~need:plen ~room:plen in
  checked (Bytes.unsafe_to_string payload) crc

(* {1 Sending} *)

let frame_bytes payload =
  let n = String.length payload in
  let b = Bytes.create (header_len + n) in
  Bytes.set_int32_le b 0 (Int32.of_int n);
  Bytes.set_int32_le b 4 (Int32.of_int (Crc32.of_string payload));
  Bytes.blit_string payload 0 b header_len n;
  b

(* Write all of [b] to the non-blocking [fd] before [deadline] seconds
   pass, waiting for writability whenever the peer's socket is full, so
   a peer that stops draining (slow-loris on the write side) cannot pin
   the sender. *)
let write_all ~count fd b ~deadline =
  let len = Bytes.length b and finish = now () +. deadline in
  let rec go sent =
    if sent >= len then Ok ()
    else begin
      if count then Obs.incr c_writes;
      match Unix.single_write fd b sent (len - sent) with
      | k -> go (sent + k)
      | exception
          Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
        ->
          let remaining = finish -. now () in
          if remaining <= 0. then Error Timeout
          else begin
            ignore
              (ready ~count ~write:true fd (Float.min remaining 0.25) : bool);
            go sent
          end
      | exception Unix.Unix_error (Unix.EPIPE, _, _) -> Error Closed
      | exception Unix.Unix_error (e, _, _) ->
          Error (Sys (Unix.error_message e))
    end
  in
  go 0

(* The fd is put in non-blocking mode for the duration of the send. *)
let send ?(deadline = 10.) fd payload =
  (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
  let r = write_all ~count:false fd (frame_bytes payload) ~deadline in
  (try Unix.clear_nonblock fd with Unix.Unix_error _ -> ());
  r

(* {1 Served connections}

   The daemon's side of a connection, owned for the connection's whole
   life: the fd is non-blocking from the start, so a reply is one
   [write] with no mode switch around it, and bytes land in a fixed
   buffer, so a frame that fits costs one wait and one [read], and
   frames a client pipelined into one [write] cost nothing more. A
   frame larger than the buffer is read straight into its own bytes. *)

module Conn = struct
  let capacity = 16384

  type t = {
    fd : Unix.file_descr;
    buf : Bytes.t;
    mutable pos : int;  (** first unconsumed byte *)
    mutable lim : int;  (** end of the bytes read *)
  }

  let of_fd fd =
    Unix.set_nonblock fd;
    { fd; buf = Bytes.create capacity; pos = 0; lim = 0 }

  let fd t = t.fd
  let buffer_bytes t = Bytes.length t.buf

  (* Make [need] bytes available from [t.pos], reading as many more as
     the buffer has room for. *)
  let ensure t c need =
    let have = t.lim - t.pos in
    if have >= need then Ok ()
    else begin
      if t.pos + need > capacity then begin
        Bytes.blit t.buf t.pos t.buf 0 have;
        t.pos <- 0;
        t.lim <- have
      end;
      let* k =
        fill ~count:true t.fd c t.buf ~off:t.lim ~need:(need - have)
          ~room:(capacity - t.lim)
      in
      t.lim <- t.lim + k;
      Ok ()
    end

  let consume t n =
    t.pos <- t.pos + n;
    if t.pos = t.lim then begin
      t.pos <- 0;
      t.lim <- 0
    end

  let recv ?(idle = 30.) ?(frame = 10.) ~max_frame t =
    let c = clock ~idle ~frame in
    if t.lim > t.pos then arrived c;
    let* () = ensure t c header_len in
    let* plen, crc = header t.buf t.pos ~max_frame in
    if header_len + plen <= capacity then begin
      let* () = ensure t c (header_len + plen) in
      let payload = Bytes.sub_string t.buf (t.pos + header_len) plen in
      consume t (header_len + plen);
      checked payload crc
    end
    else begin
      let have = t.lim - t.pos - header_len in
      let payload = Bytes.create plen in
      Bytes.blit t.buf (t.pos + header_len) payload 0 have;
      consume t (header_len + have);
      let* _ =
        fill ~count:true t.fd c payload ~off:have ~need:(plen - have)
          ~room:(plen - have)
      in
      checked (Bytes.unsafe_to_string payload) crc
    end

  let send ?(deadline = 10.) t payload =
    write_all ~count:true t.fd (frame_bytes payload) ~deadline
end

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()
