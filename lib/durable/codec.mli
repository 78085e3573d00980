(** Little-endian binary codec for WAL records and {!Maxrs.Dynamic}
    state snapshots.

    Floats travel as IEEE-754 bit patterns, so encode/decode round
    trips are byte-identical and recovered structures answer with the
    exact same bits as the originals. All decoders raise {!Malformed}
    on structural problems (truncation, bad tags, absurd lengths) —
    never [Invalid_argument] or an allocation blow-up. *)

exception Malformed of string

val malformed : ('a, unit, string, 'b) format4 -> 'a
(** [malformed fmt ...] raises {!Malformed} with a formatted message. *)

(** {1 Primitive encoders} — append to a [Buffer.t]. *)

val u8 : Buffer.t -> int -> unit
val i64 : Buffer.t -> int64 -> unit
val int_ : Buffer.t -> int -> unit
val f64 : Buffer.t -> float -> unit
val bool_ : Buffer.t -> bool -> unit
val opt : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a option -> unit
val float_array : Buffer.t -> float array -> unit
val int_array : Buffer.t -> int array -> unit

val fvec : Buffer.t -> Maxrs_geom.Fvec.t -> unit
(** Same wire format as {!float_array} (length, then one little-endian
    IEEE-754 bit pattern per slot), written as a single byte run filled
    straight from the flat {!Maxrs_geom.Fvec.t} column. Interchangeable
    with {!float_array} on the wire: either decoder reads either
    encoder's output. *)

(** {1 Primitive decoders} — consume from a cursor over a string. *)

type reader = { data : string; mutable pos : int }

val reader : ?pos:int -> string -> reader
val at_end : reader -> bool
val r_u8 : reader -> int
val r_i64 : reader -> int64
val r_int : reader -> int
val r_f64 : reader -> float
val r_bool : reader -> bool
val r_opt : (reader -> 'a) -> reader -> 'a option
val r_float_array : reader -> string -> float array
val r_int_array : reader -> string -> int array
val r_fvec : reader -> string -> Maxrs_geom.Fvec.t

val r_len : ?elem_bytes:int -> reader -> string -> int
(** Read and validate a collection length: non-negative, below the
    global cap, and small enough that [n * elem_bytes] (default 1, the
    minimum encoded size of one element) still fits in the remaining
    input. Rejecting here means a corrupt or adversarial length field
    fails cleanly {e before} any allocation proportional to it. *)

(** {1 Domain codecs} *)

val config : Buffer.t -> Maxrs.Config.t -> unit
val r_config : reader -> Maxrs.Config.t
val encode_state_bytes :
  ?reserve:int -> ?trailer:int -> Maxrs.Dynamic.State.t -> bytes
(** The state's encoding in one pass, at offset [reserve] (default 0) of
    a fresh buffer of exactly [reserve] plus its encoded size plus
    [trailer] (default 0): the sample space is written straight from
    its columns, with no growth and no copy. The first [reserve] and
    the last [trailer] bytes are left unset for the caller's own header
    and trailer. Positions are not written, only each grid's position
    CRC. Raises [Invalid_argument] when the space's column lengths
    disagree with its [dim] and [samples_per_cell]. *)

val r_state : reader -> Maxrs.Dynamic.State.t
(** Decode a state, the sample space straight into its columns, then
    redraw every cell's positions from its key and stamp
    ({!Maxrs.Sample_space.redraw}). Beyond truncation and bad tags,
    raises {!Malformed} when the space's grid count disagrees with the
    collection its config derives, and when a grid's redrawn positions
    fail its position CRC — the case of a state written on a host whose
    libm rounds [cos]/[sin] differently. *)

val encode_state : Maxrs.Dynamic.State.t -> string
(** {!encode_state_bytes} as a string. Because {!Maxrs.Dynamic.state}
    is canonical (sorted balls, sorted cells), two structures with
    equal observable state encode to equal strings — tests use this as
    a fingerprint for bit-identical recovery. *)

val state_crc : Maxrs.Dynamic.State.t -> int
(** CRC-32 of {!encode_state} — the compact state fingerprint carried
    by WAL [Check] records and verified by sharded recovery. *)

val decode_state : string -> Maxrs.Dynamic.State.t
(** Inverse of {!encode_state}; raises {!Malformed} on trailing bytes. *)

(** {1 Total decoding}

    Network-facing entry points: decoding arbitrary garbage returns
    [Error], never an exception (fuzzed in the test suite). *)

val protect : (reader -> 'a) -> string -> ('a, string) result
(** [protect dec data] runs [dec] over a fresh cursor on [data],
    mapping {!Malformed} (and, defensively, any other exception — which
    would be a codec bug) to [Error]. *)

val decode_state_result : string -> (Maxrs.Dynamic.State.t, string) result
(** Total version of {!decode_state}. *)
