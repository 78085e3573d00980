(** Socket plumbing for the MaxRS daemon: addresses, connection setup,
    and deadline-bounded transmission of length-prefixed, CRC-framed
    messages — the WAL's [u32le len | u32le crc32 | payload] frame,
    reused on the wire.

    Total by construction: torn frames, checksum mismatches, oversized
    length fields, stalled peers and mid-frame disconnects all come
    back as a structured {!error}, never an exception. *)

(** {1 Addresses} *)

type addr =
  | Unix_sock of string  (** Unix-domain socket path *)
  | Tcp of string * int  (** host, port *)

val addr_of_string : string -> (addr, string) result
(** Parse ["unix:/path"] (or any string containing ['/']) as a Unix
    socket, ["host:port"] as TCP (empty host means loopback). *)

val addr_to_string : addr -> string

val listen : ?backlog:int -> addr -> (Unix.file_descr, string) result
(** Bind and listen. An existing Unix-socket file is removed first;
    TCP sockets get [SO_REUSEADDR]. *)

val connect : addr -> (Unix.file_descr, string) result

(** {1 Framed transmission} *)

type error =
  | Timeout  (** deadline elapsed before the frame completed *)
  | Closed  (** clean EOF at a frame boundary *)
  | Torn  (** EOF mid-frame *)
  | Oversized of int  (** advertised length above [max_frame] *)
  | Crc_mismatch  (** complete but corrupt frame *)
  | Sys of string  (** unexpected socket error *)

val error_to_string : error -> string

val recv :
  ?idle:float ->
  ?frame:float ->
  max_frame:int ->
  Unix.file_descr ->
  (string, error) result
(** Receive one frame payload, reading no byte past the frame. [idle]
    (default 30s) bounds the wait for the first byte; once bytes flow,
    the whole frame must complete within [frame] (default 10s) — the
    slow-loris guard. A length field above [max_frame] is rejected
    {e before} any allocation. *)

val send : ?deadline:float -> Unix.file_descr -> string -> (unit, error) result
(** Frame and send a payload, completing within [deadline] (default
    10s) even against a peer that stops draining its socket. The fd is
    non-blocking for the duration of the call. *)

val frame_bytes : string -> bytes
(** The raw frame for a payload — for tests crafting corrupt frames. *)

val close_noerr : Unix.file_descr -> unit

(** {1 Served connections} *)

(** The daemon's side of an accepted connection, owned for the
    connection's whole life. Its fd is non-blocking from {!Conn.of_fd}
    on, so a reply is written with no mode switch, and bytes land in a
    fixed 16 KiB buffer: a frame that fits costs one wait and one
    [read], and further frames already buffered cost no syscall at
    all. A frame larger than the buffer is read straight into
    its own bytes; the buffer never grows. {!recv} and [Conn.recv] keep
    the same frame rules: deadlines, the [max_frame] bound before
    allocation, [Closed]/[Torn], and the checksum.

    Every wait ([select]), [read] and [write] is counted in [Obs] as
    [netio.conn.waits], [netio.conn.reads] and [netio.conn.writes]. *)
module Conn : sig
  type t

  val of_fd : Unix.file_descr -> t
  (** Take over an accepted fd and make it non-blocking; raises
      [Unix.Unix_error] if it cannot be. *)

  val fd : t -> Unix.file_descr

  val buffer_bytes : t -> int
  (** The receive buffer's size: 16 KiB, whatever the frames. *)

  val recv :
    ?idle:float -> ?frame:float -> max_frame:int -> t -> (string, error) result
  (** As {!Netio.recv}, reading ahead into the buffer. *)

  val send : ?deadline:float -> t -> string -> (unit, error) result
  (** As {!Netio.send}, with no [fcntl]: the fd is already
      non-blocking. *)
end
