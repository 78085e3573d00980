(** CRC-32 (IEEE 802.3) — the checksum guarding every WAL record and
    snapshot payload. Values are in [0, 2^32). *)

val of_string : string -> int
val of_bytes : bytes -> int

val of_substring : string -> pos:int -> len:int -> int
(** Raises [Invalid_argument] on an out-of-bounds range. *)

val update : int -> string -> pos:int -> len:int -> int
(** [update crc s ~pos ~len] continues [crc], the CRC of the bytes
    before these ([0] for none), over the range:
    [update (of_string a) b ~pos:0 ~len:(String.length b)] is
    [of_string (a ^ b)]. Raises [Invalid_argument] on an out-of-bounds
    range. *)

val update_floats : int -> floatarray -> int
(** {!update} over the floats' IEEE-754 bit patterns, each as 8
    little-endian bytes, without materializing them. *)
