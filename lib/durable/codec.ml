(* Little-endian binary codec for WAL records and full Dynamic states.

   Every multi-byte value is fixed-width little-endian; floats are
   serialized as their IEEE-754 bit pattern (Int64.bits_of_float), so a
   decode-encode round trip is byte-identical and recovered states
   answer queries with the exact same bits as the originals. Decoders
   raise {!Malformed} on any structural problem; the WAL and snapshot
   layers treat that as corruption of the enclosing checksummed frame
   (unreachable unless the frame was produced by an incompatible
   version, since the CRC already guards against bit damage). *)

module Config = Maxrs.Config
module Dynamic = Maxrs.Dynamic
module Sample_space = Maxrs.Sample_space
module Fvec = Maxrs_geom.Fvec

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt

(* Bounds on decoded collection sizes: a corrupt length field must fail
   cleanly instead of attempting a multi-gigabyte allocation. *)
let max_seq_len = 1 lsl 28

(* {1 Encoding} *)

let u8 b v = Buffer.add_char b (Char.chr (v land 0xff))
let i64 b v = Buffer.add_int64_le b v
let int_ b v = i64 b (Int64.of_int v)
let f64 b v = i64 b (Int64.bits_of_float v)
let bool_ b v = u8 b (if v then 1 else 0)

let opt enc b = function
  | None -> u8 b 0
  | Some v ->
      u8 b 1;
      enc b v

let array_ enc b a =
  int_ b (Array.length a);
  Array.iter (enc b) a

let list_ enc b l =
  int_ b (List.length l);
  List.iter (enc b) l

let float_array b a = array_ f64 b a
let int_array b a = array_ int_ b a

(* Same wire format as [float_array] (length, then one LE f64 bit
   pattern per slot), but written as a single byte run filled straight
   from the Bigarray column — the flat-column analogue of a blit. The
   two encoders are interchangeable on the wire. *)
let fvec b (v : Fvec.t) =
  let n = Fvec.length v in
  int_ b n;
  let raw = Bytes.create (8 * n) in
  for i = 0 to n - 1 do
    Bytes.set_int64_le raw (8 * i) (Int64.bits_of_float (Fvec.unsafe_get v i))
  done;
  Buffer.add_bytes b raw

(* {1 Decoding} *)

type reader = { data : string; mutable pos : int }

let reader ?(pos = 0) data = { data; pos }
let at_end r = r.pos >= String.length r.data

let need r n what =
  if r.pos + n > String.length r.data then
    malformed "truncated %s at offset %d" what r.pos

let r_u8 r =
  need r 1 "u8";
  let v = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  v

let r_i64 r =
  need r 8 "i64";
  let v = String.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  v

let r_int r =
  let v = r_i64 r in
  let i = Int64.to_int v in
  if Int64.of_int i <> v then malformed "int out of native range";
  i

let r_f64 r = Int64.float_of_bits (r_i64 r)

let r_bool r =
  match r_u8 r with
  | 0 -> false
  | 1 -> true
  | v -> malformed "bad bool byte %d" v

let r_opt dec r =
  match r_u8 r with
  | 0 -> None
  | 1 -> Some (dec r)
  | v -> malformed "bad option byte %d" v

(* Length fields are validated against the bytes actually remaining in
   the input before anything is allocated: every element of a decoded
   collection consumes at least [elem_bytes] bytes, so a corrupt (or
   adversarial — these readers also parse network frames) length field
   fails here instead of triggering a multi-gigabyte [Array.init]. *)
let r_len ?(elem_bytes = 1) r what =
  let n = r_int r in
  if n < 0 || n > max_seq_len then malformed "bad %s length %d" what n;
  let remaining = String.length r.data - r.pos in
  if n * elem_bytes > remaining then
    malformed "%s length %d exceeds remaining %d bytes" what n remaining;
  n

let r_array ?elem_bytes dec r what =
  let n = r_len ?elem_bytes r what in
  Array.init n (fun _ -> dec r)

let r_list ?elem_bytes dec r what =
  let n = r_len ?elem_bytes r what in
  List.init n (fun _ -> dec r)

let r_float_array r what = r_array ~elem_bytes:8 r_f64 r what
let r_int_array r what = r_array ~elem_bytes:8 r_int r what

(* A run of [n] fixed-size elements gets one bounds check, then its
   caller reads it in place from the returned offset; the cursor moves
   past it. A short run fails with the message an element-wise read of
   8-byte words would have given at its first missing word. *)
let r_run r ~elem_bytes n =
  let p = r.pos in
  let remaining = String.length r.data - p in
  if n * elem_bytes > remaining then
    malformed "truncated i64 at offset %d" (p + (8 * (remaining / 8)));
  r.pos <- p + (n * elem_bytes);
  p

(* Inverse of [fvec]: one bounds check for the whole run, then a
   straight fill of the fresh column. *)
let r_fvec r what =
  let n = r_len ~elem_bytes:8 r what in
  let p = r_run r ~elem_bytes:8 n in
  let v = Fvec.create n in
  for i = 0 to n - 1 do
    Fvec.unsafe_set v i
      (Int64.float_of_bits (String.get_int64_le r.data (p + (8 * i))))
  done;
  v

(* {1 Config} *)

let config b (c : Config.t) =
  f64 b c.Config.epsilon;
  f64 b c.Config.sample_constant;
  int_ b c.Config.min_samples;
  opt int_ b c.Config.max_grid_shifts;
  int_ b c.Config.seed;
  opt int_ b c.Config.domains;
  opt bool_ b c.Config.stats

let r_config r : Config.t =
  let epsilon = r_f64 r in
  let sample_constant = r_f64 r in
  let min_samples = r_int r in
  let max_grid_shifts = r_opt r_int r in
  let seed = r_int r in
  let domains = r_opt r_int r in
  let stats = r_opt r_bool r in
  {
    Config.epsilon;
    sample_constant;
    min_samples;
    max_grid_shifts;
    seed;
    domains;
    stats;
  }

(* {1 Sample-space state}

   The wire format, every field fixed-width little-endian:
   {v
     space := int dim | int samples_per_cell | int grids | grid*
     grid  := i64 rng | int next_id | int cells | int pos_crc | cell*
                                                       (ascending keys)
     cell  := int key*dim | int nballs | i64 stamp | int base | f64 depth*m
   v}
   A cell is 8 dim + 24 + 8 m bytes, so the exact size of a state is
   known before a byte is written: the encoder fills one buffer of
   exactly that size straight from the state's columns, and the decoder
   fills the columns straight from the bytes.

   Positions are not on the wire. The decoder redraws them from each
   cell's key and stamp ({!Sample_space.redraw}) and checks them
   against [pos_crc], the CRC-32 of the grid's positions (IEEE-754 bits,
   little-endian, cells in key order) that the encoder took from the
   state's [pos] column. A libm that rounds [cos]/[sin] differently
   from the writer's redraws other bits and fails that check: the state
   is then [Malformed], like any other corrupt one. *)

module SS = Sample_space.State

let cell_bytes ~dim ~m = (8 * dim) + 24 + (8 * m)
let grid_header_bytes = 32

let space_bytes (s : SS.t) =
  let cell = cell_bytes ~dim:s.SS.dim ~m:s.SS.samples_per_cell in
  Array.fold_left
    (fun acc g -> acc + grid_header_bytes + (SS.cells g * cell))
    24 s.SS.grids

let put_int b p v = Bytes.set_int64_le b p (Int64.of_int v)

let put_f64 b p v = Bytes.set_int64_le b p (Int64.bits_of_float v)

(* Write [s] at offset [p] of [b]; returns the offset past it. The
   shape check licenses the unchecked column reads. *)
let write_space b p (s : SS.t) =
  SS.check_shape s;
  let dim = s.SS.dim and m = s.SS.samples_per_cell in
  put_int b p dim;
  put_int b (p + 8) m;
  put_int b (p + 16) (Array.length s.SS.grids);
  let p = ref (p + 24) in
  Array.iter
    (fun (g : SS.grid) ->
      let n = SS.cells g in
      Bytes.set_int64_le b !p g.SS.rng;
      put_int b (!p + 8) g.SS.next_id;
      put_int b (!p + 16) n;
      put_int b (!p + 24) (Crc32.update_floats 0 g.SS.pos);
      p := !p + grid_header_bytes;
      for i = 0 to n - 1 do
        let q = !p in
        for k = 0 to dim - 1 do
          put_int b (q + (8 * k)) (Array.unsafe_get g.SS.keys ((i * dim) + k))
        done;
        let q = q + (8 * dim) in
        put_int b q (Array.unsafe_get g.SS.nballs i);
        Bytes.set_int64_le b (q + 8) (Bigarray.Array1.unsafe_get g.SS.stamps i);
        put_int b (q + 16) (Array.unsafe_get g.SS.bases i);
        let q = q + 24 in
        for j = 0 to m - 1 do
          put_f64 b
            (q + (8 * j))
            (Float.Array.unsafe_get g.SS.depth ((i * m) + j))
        done;
        p := q + (8 * m)
      done)
    s.SS.grids;
  !p

let int_at s p =
  let v = String.get_int64_le s p in
  let i = Int64.to_int v in
  if Int64.of_int i <> v then
    malformed "int out of native range at offset %d" p;
  i

(* Decode one grid straight into its columns, [pos] left for the
   redraw; returns it with its position CRC. The cell count is checked
   against the bytes left before anything is allocated; after that
   every cell's bytes are known to be there. *)
let r_grid ~dim ~m r =
  let rng = r_i64 r in
  let next_id = r_int r in
  let n = r_int r in
  let pos_crc = r_int r in
  let cb = cell_bytes ~dim ~m in
  let remaining = String.length r.data - r.pos in
  if n < 0 || n > remaining / cb then
    malformed "bad grid cells length %d (%d bytes left)" n remaining;
  let g =
    {
      SS.rng;
      next_id;
      keys = Array.make (n * dim) 0;
      nballs = Array.make n 0;
      stamps = SS.create_stamps n;
      bases = Array.make n 0;
      pos = Float.Array.create (n * m * dim);
      depth = Float.Array.create (n * m);
    }
  in
  let s = r.data in
  let p = ref r.pos in
  for i = 0 to n - 1 do
    let q = !p in
    for k = 0 to dim - 1 do
      Array.unsafe_set g.SS.keys ((i * dim) + k) (int_at s (q + (8 * k)))
    done;
    let q = q + (8 * dim) in
    Array.unsafe_set g.SS.nballs i (int_at s q);
    Bigarray.Array1.unsafe_set g.SS.stamps i (String.get_int64_le s (q + 8));
    Array.unsafe_set g.SS.bases i (int_at s (q + 16));
    let q = q + 24 in
    for j = 0 to m - 1 do
      Float.Array.unsafe_set g.SS.depth ((i * m) + j)
        (Int64.float_of_bits (String.get_int64_le s (q + (8 * j))))
    done;
    p := q + (8 * m)
  done;
  r.pos <- !p;
  (g, pos_crc)

let r_space ~cfg r : SS.t =
  let dim = r_int r in
  let m = r_int r in
  if dim < 1 || dim > max_seq_len then malformed "bad state dimension %d" dim;
  if m < 1 || m > max_seq_len then malformed "bad samples per cell %d" m;
  let grids =
    r_array ~elem_bytes:grid_header_bytes (r_grid ~dim ~m) r "grids"
  in
  let s = { SS.dim; samples_per_cell = m; grids = Array.map fst grids } in
  (match Sample_space.redraw ~cfg s with
  | () -> ()
  | exception Invalid_argument msg -> malformed "%s" msg);
  Array.iteri
    (fun gi ((g : SS.grid), crc) ->
      if Crc32.update_floats 0 g.SS.pos <> crc then
        malformed "grid %d: redrawn positions fail their CRC" gi)
    grids;
  s

(* {1 Dynamic state} *)

let ball b (h, (center, weight)) =
  int_ b (Dynamic.handle_id h);
  float_array b center;
  f64 b weight

let r_ball r =
  let h = Dynamic.handle_of_id (r_int r) in
  let center = r_float_array r "ball center" in
  let weight = r_f64 r in
  (h, (center, weight))

(* The fields ahead of the sample space — a few hundred bytes plus the
   balls — go through a small [Buffer]; the space, nearly all of the
   state, is written in place. *)
let encode_state_bytes ?(reserve = 0) ?(trailer = 0) (s : Dynamic.State.t) =
  let head = Buffer.create 4096 in
  int_ head s.Dynamic.State.dim;
  f64 head s.Dynamic.State.radius;
  config head s.Dynamic.State.cfg;
  list_ ball head s.Dynamic.State.balls;
  int_ head s.Dynamic.State.n0;
  int_ head s.Dynamic.State.next_handle;
  int_ head s.Dynamic.State.epochs;
  let hl = Buffer.length head in
  let size = hl + space_bytes s.Dynamic.State.space in
  let b = Bytes.create (reserve + size + trailer) in
  Buffer.blit head 0 b reserve hl;
  let stop = write_space b (reserve + hl) s.Dynamic.State.space in
  assert (stop = reserve + size);
  b

let r_state r : Dynamic.State.t =
  let dim = r_int r in
  let radius = r_f64 r in
  let cfg = r_config r in
  let balls = r_list r_ball r "balls" in
  let n0 = r_int r in
  let next_handle = r_int r in
  let epochs = r_int r in
  let space = r_space ~cfg r in
  { Dynamic.State.dim; radius; cfg; balls; n0; next_handle; epochs; space }

let encode_state s = Bytes.unsafe_to_string (encode_state_bytes s)

(* The state fingerprint journaled by [Check] records and compared by
   sharded recovery: CRC-32 of the canonical encoding. Two structures
   fingerprint equal iff their canonical states are byte-equal (modulo
   CRC collisions, which the differential suite's full-string compares
   would still catch). *)
let state_crc s = Crc32.of_bytes (encode_state_bytes s)

let decode_state data =
  let r = reader data in
  let s = r_state r in
  if not (at_end r) then
    malformed "trailing bytes after state (%d of %d consumed)" r.pos
      (String.length data);
  s

(* {1 Total decoding}

   Once frames arrive from the network rather than from our own WAL,
   "raises only [Malformed]" is not a strong enough contract: a decode
   of adversarial bytes must be an ordinary [Error] value. [protect]
   is the single funnel — it maps [Malformed] to [Error] and, as a
   last line of defence, any other exception too (an escape of, say,
   [Invalid_argument] would be a codec bug; the fuzz suite exists to
   keep that arm dead, but a daemon must not crash while we look). *)

let protect dec data =
  match dec (reader data) with
  | v -> Ok v
  | exception Malformed m -> Error m
  | exception e ->
      Error (Printf.sprintf "decoder bug: %s" (Printexc.to_string e))

let decode_state_result data =
  protect
    (fun r ->
      let s = r_state r in
      if not (at_end r) then
        malformed "trailing bytes after state (%d of %d consumed)" r.pos
          (String.length data);
      s)
    data
