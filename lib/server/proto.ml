(* Request/reply bodies of the MaxRS wire protocol, and their binary
   codec (little-endian, floats as IEEE-754 bit patterns — the same
   conventions as the WAL codec, so a solve shipped over the wire and
   solved locally print bit-identical answers).

   Every message travels as one CRC frame (see {!Netio}); this module
   only encodes/decodes the payload. Decoding is total: arbitrary
   bytes yield [Error], never an exception. *)

module Codec = Maxrs_durable.Codec
module Outcome = Maxrs_resilience.Outcome

let version = 1

(* Collection caps, over and above the frame-size cap: a single
   request may not smuggle more than ~4M points. *)
let max_points = 1 lsl 22
let max_string = 1 lsl 16

type request =
  | Ping
  | Solve_weighted of {
      radius : float;
      deadline : float option;  (* seconds of budget; None = server default *)
      points : (float * float * float) array;  (* x, y, weight *)
    }
  | Solve_colored of {
      radius : float;
      deadline : float option;
      seed : int;
      max_shifts : int option;
      points : (float * float) array;
      colors : int array;
    }
  | Solve_static of {
      radius : float;
      epsilon : float;
      seed : int;
      max_shifts : int option;
      points : (float * float * float) array;
    }
  | Solve_interval of { len : float; points : (float * float) array }
  | Insert of { x : float; y : float; weight : float }
  | Delete of { handle : int }
  | Query
  | Stats
  | Range_sum of { lo : float; hi : float }
      (* max-sum segment of the session's points (axis-0 projection)
         whose coordinates lie in [lo, hi]; infinite bounds legal *)

type source = Exact | Approx_fallback | Best_so_far

type answer = {
  x : float;
  y : float;
  value : float;  (* weighted depth, colored depth, or interval sum *)
  verified : bool;
  source : source;
}

type err_code =
  | Overloaded  (** admission control rejected the request; retry later *)
  | Invalid  (** structurally valid request, semantically bad input *)
  | Malformed_request  (** the frame's payload did not decode *)
  | Shutting_down  (** the server is draining *)
  | Too_large  (** request exceeded the frame/point caps *)
  | Internal  (** unexpected server-side failure *)

type server_stats = {
  uptime_s : float;
  conns_active : int;
  queue_depth : int;
  inflight : int;
  accepted : int;
  rejected : int;
  completed : int;
  degraded : int;
  partial : int;
  invalid : int;
  protocol_errors : int;
  timeouts : int;
  disconnects : int;
  p50_us : int;  (** power-of-two-bucket upper bound *)
  p99_us : int;
  latency_buckets : (int * int) array;  (** (bucket index, count) *)
}

type reply =
  | Pong
  | Solved of answer Outcome.t
  | Inserted of { handle : int; seq : int }
  | Deleted of { seq : int }
  | Best of (float * float * float) option  (** x, y, value *)
  | Stats_reply of server_stats
  | Error_reply of { code : err_code; retry_after_ms : int; msg : string }
  | Range_best of {
      seg : (int * int * float) option;  (* s_lo, s_hi, exact sum *)
      epoch : int;  (* serving index epoch; 0 = fallback sweep *)
      lag_ops : int;  (* ops the index lagged the store by; 0 on fallback *)
    }

(* {1 Small helpers} *)

let source_to_u8 = function
  | Exact -> 0
  | Approx_fallback -> 1
  | Best_so_far -> 2

let source_of_u8 = function
  | 0 -> Exact
  | 1 -> Approx_fallback
  | 2 -> Best_so_far
  | v -> Codec.malformed "bad source byte %d" v

let err_code_to_u8 = function
  | Overloaded -> 0
  | Invalid -> 1
  | Malformed_request -> 2
  | Shutting_down -> 3
  | Too_large -> 4
  | Internal -> 5

let err_code_of_u8 = function
  | 0 -> Overloaded
  | 1 -> Invalid
  | 2 -> Malformed_request
  | 3 -> Shutting_down
  | 4 -> Too_large
  | 5 -> Internal
  | v -> Codec.malformed "bad error code byte %d" v

let err_code_to_string = function
  | Overloaded -> "overloaded"
  | Invalid -> "invalid input"
  | Malformed_request -> "malformed request"
  | Shutting_down -> "shutting down"
  | Too_large -> "request too large"
  | Internal -> "internal error"

(* {1 Exact-size encoding}

   Every message is written into one [Bytes] of exactly its encoded
   size, computed first: no buffer growth and no copy out. Floats are
   written here, through the [Bytes] primitives, so no [Int64] crosses
   a call boxed. The bytes are those of the WAL codec's [Buffer]
   writers: little-endian, floats as IEEE-754 bit patterns, an option
   as a 0/1 byte then its value, a collection as its length then its
   elements. *)

(* u8 version | int id | u8 tag *)
let header_bytes = 10
let opt_bytes = function None -> 1 | Some _ -> 9

let[@inline] put_u8 b p v =
  Bytes.unsafe_set b p (Char.unsafe_chr (v land 0xff));
  p + 1

let[@inline] put_int b p v =
  Bytes.set_int64_le b p (Int64.of_int v);
  p + 8

let[@inline] put_f64 b p v =
  Bytes.set_int64_le b p (Int64.bits_of_float v);
  p + 8

let put_opt_f64 b p = function
  | None -> put_u8 b p 0
  | Some v -> put_f64 b (put_u8 b p 1) v

let put_opt_int b p = function
  | None -> put_u8 b p 0
  | Some v -> put_int b (put_u8 b p 1) v

let put_pairs b p a =
  let n = Array.length a in
  let p = put_int b p n in
  for i = 0 to n - 1 do
    let x, y = Array.unsafe_get a i in
    let q = p + (16 * i) in
    Bytes.set_int64_le b q (Int64.bits_of_float x);
    Bytes.set_int64_le b (q + 8) (Int64.bits_of_float y)
  done;
  p + (16 * n)

let put_triples b p a =
  let n = Array.length a in
  let p = put_int b p n in
  for i = 0 to n - 1 do
    let x, y, w = Array.unsafe_get a i in
    let q = p + (24 * i) in
    Bytes.set_int64_le b q (Int64.bits_of_float x);
    Bytes.set_int64_le b (q + 8) (Int64.bits_of_float y);
    Bytes.set_int64_le b (q + 16) (Int64.bits_of_float w)
  done;
  p + (24 * n)

let put_ints b p a =
  let n = Array.length a in
  let p = put_int b p n in
  for i = 0 to n - 1 do
    Bytes.set_int64_le b (p + (8 * i)) (Int64.of_int (Array.unsafe_get a i))
  done;
  p + (8 * n)

let put_xyw b p (x, y, w) = put_f64 b (put_f64 b (put_f64 b p x) y) w

let put_string b p s =
  let n = String.length s in
  let p = put_int b p n in
  Bytes.blit_string s 0 b p n;
  p + n

(* The header, then [body] from its offset; checks the size was exact. *)
let encode size ~id ~tag body =
  let b = Bytes.create size in
  let p = put_u8 b (put_int b (put_u8 b 0 version) id) tag in
  let stop = body b p in
  assert (stop = size);
  Bytes.unsafe_to_string b

(* {1 Decoding helpers} *)

let r_string (r : Codec.reader) what =
  let n = Codec.r_len r what in
  if n > max_string then Codec.malformed "%s too long (%d bytes)" what n;
  let s = String.sub r.Codec.data r.Codec.pos n in
  r.Codec.pos <- r.Codec.pos + n;
  s

let r_points_len r what =
  let n = Codec.r_len ~elem_bytes:8 r what in
  if n > max_points then Codec.malformed "%s: %d points exceed cap" what n;
  n

let r_xyw r =
  let x = Codec.r_f64 r in
  let y = Codec.r_f64 r in
  let w = Codec.r_f64 r in
  (x, y, w)

(* Point runs: one bounds check, then the floats are read in place.
   What is left to allocate is the wire type itself, a tuple and its
   boxed floats per point (7 words a pair, 10 a triple); the array is
   made from a static tuple, so no young block forces a minor
   collection to fill it. *)
let r_points r what =
  let n = r_points_len r what in
  let p = Codec.r_run r ~elem_bytes:24 n in
  let s = r.Codec.data in
  let a = Array.make n (0., 0., 0.) in
  for i = 0 to n - 1 do
    let q = p + (24 * i) in
    Array.unsafe_set a i
      ( Int64.float_of_bits (String.get_int64_le s q),
        Int64.float_of_bits (String.get_int64_le s (q + 8)),
        Int64.float_of_bits (String.get_int64_le s (q + 16)) )
  done;
  a

let r_pairs r what =
  let n = r_points_len r what in
  let p = Codec.r_run r ~elem_bytes:16 n in
  let s = r.Codec.data in
  let a = Array.make n (0., 0.) in
  for i = 0 to n - 1 do
    let q = p + (16 * i) in
    Array.unsafe_set a i
      ( Int64.float_of_bits (String.get_int64_le s q),
        Int64.float_of_bits (String.get_int64_le s (q + 8)) )
  done;
  a

let r_colors r what =
  let n = r_points_len r what in
  let p = Codec.r_run r ~elem_bytes:8 n in
  let s = r.Codec.data in
  let a = Array.make n 0 in
  for i = 0 to n - 1 do
    let v = String.get_int64_le s (p + (8 * i)) in
    let c = Int64.to_int v in
    if Int64.of_int c <> v then Codec.malformed "int out of native range";
    Array.unsafe_set a i c
  done;
  a

(* {1 Requests} *)

let request_size = function
  | Ping | Query | Stats -> header_bytes
  | Solve_weighted { deadline; points; _ } ->
      header_bytes + 8 + opt_bytes deadline + 8 + (24 * Array.length points)
  | Solve_colored { deadline; max_shifts; points; colors; _ } ->
      header_bytes + 8 + opt_bytes deadline + 8 + opt_bytes max_shifts + 8
      + (16 * Array.length points)
      + 8
      + (8 * Array.length colors)
  | Solve_static { max_shifts; points; _ } ->
      header_bytes + 24 + opt_bytes max_shifts + 8
      + (24 * Array.length points)
  | Solve_interval { points; _ } ->
      header_bytes + 16 + (16 * Array.length points)
  | Insert _ -> header_bytes + 24
  | Delete _ -> header_bytes + 8
  | Range_sum _ -> header_bytes + 16

let request_tag = function
  | Ping -> 0
  | Solve_weighted _ -> 1
  | Solve_colored _ -> 2
  | Solve_static _ -> 3
  | Solve_interval _ -> 4
  | Insert _ -> 5
  | Delete _ -> 6
  | Query -> 7
  | Stats -> 8
  | Range_sum _ -> 9

let encode_request ~id req =
  encode (request_size req) ~id ~tag:(request_tag req) (fun b p ->
      match req with
      | Ping | Query | Stats -> p
      | Solve_weighted { radius; deadline; points } ->
          let p = put_opt_f64 b (put_f64 b p radius) deadline in
          put_triples b p points
      | Solve_colored { radius; deadline; seed; max_shifts; points; colors }
        ->
          let p = put_opt_f64 b (put_f64 b p radius) deadline in
          let p = put_opt_int b (put_int b p seed) max_shifts in
          put_ints b (put_pairs b p points) colors
      | Solve_static { radius; epsilon; seed; max_shifts; points } ->
          let p = put_int b (put_f64 b (put_f64 b p radius) epsilon) seed in
          put_triples b (put_opt_int b p max_shifts) points
      | Solve_interval { len; points } -> put_pairs b (put_f64 b p len) points
      | Insert { x; y; weight } -> put_xyw b p (x, y, weight)
      | Delete { handle } -> put_int b p handle
      | Range_sum { lo; hi } -> put_f64 b (put_f64 b p lo) hi)

let r_request r =
  let v = Codec.r_u8 r in
  if v <> version then Codec.malformed "protocol version %d (expected %d)" v version;
  let id = Codec.r_int r in
  let req =
    match Codec.r_u8 r with
    | 0 -> Ping
    | 1 ->
        let radius = Codec.r_f64 r in
        let deadline = Codec.r_opt Codec.r_f64 r in
        let points = r_points r "points" in
        Solve_weighted { radius; deadline; points }
    | 2 ->
        let radius = Codec.r_f64 r in
        let deadline = Codec.r_opt Codec.r_f64 r in
        let seed = Codec.r_int r in
        let max_shifts = Codec.r_opt Codec.r_int r in
        let points = r_pairs r "points" in
        let colors = r_colors r "colors" in
        Solve_colored { radius; deadline; seed; max_shifts; points; colors }
    | 3 ->
        let radius = Codec.r_f64 r in
        let epsilon = Codec.r_f64 r in
        let seed = Codec.r_int r in
        let max_shifts = Codec.r_opt Codec.r_int r in
        let points = r_points r "points" in
        Solve_static { radius; epsilon; seed; max_shifts; points }
    | 4 ->
        let len = Codec.r_f64 r in
        let points = r_pairs r "points" in
        Solve_interval { len; points }
    | 5 ->
        let x = Codec.r_f64 r in
        let y = Codec.r_f64 r in
        let weight = Codec.r_f64 r in
        Insert { x; y; weight }
    | 6 -> Delete { handle = Codec.r_int r }
    | 7 -> Query
    | 8 -> Stats
    | 9 ->
        let lo = Codec.r_f64 r in
        let hi = Codec.r_f64 r in
        Range_sum { lo; hi }
    | t -> Codec.malformed "unknown request tag %d" t
  in
  if not (Codec.at_end r) then Codec.malformed "trailing bytes after request";
  (id, req)

let decode_request payload = Codec.protect r_request payload

(* {1 Replies} *)

let r_answer r =
  let x = Codec.r_f64 r in
  let y = Codec.r_f64 r in
  let value = Codec.r_f64 r in
  let verified = Codec.r_bool r in
  let source = source_of_u8 (Codec.r_u8 r) in
  { x; y; value; verified; source }

let reply_size = function
  | Pong -> header_bytes
  | Solved _ -> header_bytes + 1 + 26
  | Inserted _ -> header_bytes + 16
  | Deleted _ -> header_bytes + 8
  | Best best -> header_bytes + 1 + (match best with None -> 0 | Some _ -> 24)
  | Stats_reply s ->
      header_bytes + 8 + (14 * 8) + 8 + (16 * Array.length s.latency_buckets)
  | Error_reply { msg; _ } -> header_bytes + 17 + String.length msg
  | Range_best { seg; _ } ->
      header_bytes + 1 + (match seg with None -> 0 | Some _ -> 24) + 16

let reply_tag = function
  | Pong -> 0
  | Solved _ -> 1
  | Inserted _ -> 2
  | Deleted _ -> 3
  | Best _ -> 4
  | Stats_reply _ -> 5
  | Error_reply _ -> 6
  | Range_best _ -> 7

let encode_reply ~id reply =
  encode (reply_size reply) ~id ~tag:(reply_tag reply) (fun b p ->
      match reply with
      | Pong -> p
      | Solved outcome ->
          let p =
            put_u8 b p
              (match outcome with
              | Outcome.Complete _ -> 0
              | Outcome.Degraded _ -> 1
              | Outcome.Partial _ -> 2)
          in
          let a = Outcome.value outcome in
          let p = put_f64 b (put_f64 b (put_f64 b p a.x) a.y) a.value in
          put_u8 b (put_u8 b p (if a.verified then 1 else 0))
            (source_to_u8 a.source)
      | Inserted { handle; seq } -> put_int b (put_int b p handle) seq
      | Deleted { seq } -> put_int b p seq
      | Best None -> put_u8 b p 0
      | Best (Some xyw) -> put_xyw b (put_u8 b p 1) xyw
      | Stats_reply s ->
          let p = put_f64 b p s.uptime_s in
          let p =
            List.fold_left (put_int b) p
              [
                s.conns_active;
                s.queue_depth;
                s.inflight;
                s.accepted;
                s.rejected;
                s.completed;
                s.degraded;
                s.partial;
                s.invalid;
                s.protocol_errors;
                s.timeouts;
                s.disconnects;
                s.p50_us;
                s.p99_us;
              ]
          in
          Array.fold_left
            (fun p (i, c) -> put_int b (put_int b p i) c)
            (put_int b p (Array.length s.latency_buckets))
            s.latency_buckets
      | Error_reply { code; retry_after_ms; msg } ->
          let p = put_int b (put_u8 b p (err_code_to_u8 code)) retry_after_ms in
          put_string b p msg
      | Range_best { seg; epoch; lag_ops } ->
          let p =
            match seg with
            | None -> put_u8 b p 0
            | Some (l, h, sum) ->
                put_f64 b (put_int b (put_int b (put_u8 b p 1) l) h) sum
          in
          put_int b (put_int b p epoch) lag_ops)

let r_reply r =
  let v = Codec.r_u8 r in
  if v <> version then Codec.malformed "protocol version %d (expected %d)" v version;
  let id = Codec.r_int r in
  let reply =
    match Codec.r_u8 r with
    | 0 -> Pong
    | 1 -> (
        let tag = Codec.r_u8 r in
        let a = r_answer r in
        match tag with
        | 0 -> Solved (Outcome.Complete a)
        | 1 -> Solved (Outcome.Degraded a)
        | 2 -> Solved (Outcome.Partial a)
        | t -> Codec.malformed "bad outcome tag %d" t)
    | 2 ->
        let handle = Codec.r_int r in
        let seq = Codec.r_int r in
        Inserted { handle; seq }
    | 3 -> Deleted { seq = Codec.r_int r }
    | 4 -> Best (Codec.r_opt r_xyw r)
    | 5 ->
        let uptime_s = Codec.r_f64 r in
        let conns_active = Codec.r_int r in
        let queue_depth = Codec.r_int r in
        let inflight = Codec.r_int r in
        let accepted = Codec.r_int r in
        let rejected = Codec.r_int r in
        let completed = Codec.r_int r in
        let degraded = Codec.r_int r in
        let partial = Codec.r_int r in
        let invalid = Codec.r_int r in
        let protocol_errors = Codec.r_int r in
        let timeouts = Codec.r_int r in
        let disconnects = Codec.r_int r in
        let p50_us = Codec.r_int r in
        let p99_us = Codec.r_int r in
        let latency_buckets =
          let n = Codec.r_len ~elem_bytes:16 r "latency buckets" in
          Array.init n (fun _ ->
              let i = Codec.r_int r in
              let c = Codec.r_int r in
              (i, c))
        in
        Stats_reply
          {
            uptime_s;
            conns_active;
            queue_depth;
            inflight;
            accepted;
            rejected;
            completed;
            degraded;
            partial;
            invalid;
            protocol_errors;
            timeouts;
            disconnects;
            p50_us;
            p99_us;
            latency_buckets;
          }
    | 6 ->
        let code = err_code_of_u8 (Codec.r_u8 r) in
        let retry_after_ms = Codec.r_int r in
        let msg = r_string r "error message" in
        Error_reply { code; retry_after_ms; msg }
    | 7 ->
        let seg =
          Codec.r_opt
            (fun r ->
              let l = Codec.r_int r in
              let h = Codec.r_int r in
              let s = Codec.r_f64 r in
              (l, h, s))
            r
        in
        let epoch = Codec.r_int r in
        let lag_ops = Codec.r_int r in
        Range_best { seg; epoch; lag_ops }
    | t -> Codec.malformed "unknown reply tag %d" t
  in
  if not (Codec.at_end r) then Codec.malformed "trailing bytes after reply";
  (id, reply)

let decode_reply payload = Codec.protect r_reply payload
