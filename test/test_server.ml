(* Tests for the network daemon: protocol codec totality, admission
   control, deadline degradation, the hardened connection path (torn
   frames, CRC flips, oversized lengths, slow-loris, mid-request
   disconnects), client retry/backoff, the deterministic fault-proxy
   chaos run, and — at the process level — SIGTERM drain and kill -9
   recovery of the WAL-backed session. *)

module Rng = Maxrs_geom.Rng
module Dynamic = Maxrs.Dynamic
module Resilient = Maxrs.Resilient
module Outcome = Maxrs_resilience.Outcome
module Codec = Maxrs_durable.Codec
module Session = Maxrs_durable.Session
module Wal = Maxrs_durable.Wal
module Netio = Maxrs_server.Netio
module Proto = Maxrs_server.Proto
module Server = Maxrs_server.Server
module Client = Maxrs_server.Client
module Net_faults = Maxrs_server.Net_faults
module Interval1d = Maxrs_sweep.Interval1d
module Obs = Maxrs_obs.Obs

let test_dir = Filename.dirname Sys.executable_name

let serverd =
  match Sys.getenv_opt "MAXRS_SERVERD" with
  | Some p -> p
  | None -> Filename.concat test_dir "../bin/maxrs_serverd.exe"

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let fresh_path suffix =
  let p = Filename.temp_file "maxrs_server" suffix in
  Sys.remove p;
  p

let fresh_sock () = Netio.Unix_sock (fresh_path ".sock")

let cleanup_wal wal =
  let dir = Filename.dirname wal and base = Filename.basename wal in
  Array.iter
    (fun name ->
      if
        String.length name >= String.length base
        && String.sub name 0 (String.length base) = base
      then try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
    (Sys.readdir dir)

(* Deterministic weighted instance; the same generator everywhere so
   bit-identity comparisons are meaningful. *)
let instance n =
  let rng = Rng.create 97 in
  Array.init n (fun _ ->
      (Rng.uniform rng (-4.) 4., Rng.uniform rng (-4.) 4., Rng.float rng 1.))

let with_server ?(tune = fun c -> c) f =
  let addr = fresh_sock () in
  let cfg = tune (Server.default_config addr) in
  match Server.start cfg with
  | Error m -> Alcotest.fail ("server start: " ^ m)
  | Ok t ->
      Fun.protect
        ~finally:(fun () ->
          Server.stop t;
          match cfg.Server.wal with Some w -> cleanup_wal w | None -> ())
        (fun () -> f t addr)

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> Alcotest.fail (what ^ ": " ^ Client.error_to_string e)

let bits = Int64.bits_of_float

let check_answer_bits what (a : Proto.answer) ~x ~y ~value =
  Alcotest.(check bool)
    (what ^ ": answer bit-identical") true
    (bits a.Proto.x = bits x
    && bits a.Proto.y = bits y
    && bits a.Proto.value = bits value)

(* ------------------------------------------------------------------ *)
(* Protocol codec *)

let gen_answer rng =
  {
    Proto.x = Rng.gaussian rng;
    y = Rng.gaussian rng;
    value = Rng.float rng 100.;
    verified = Rng.bool rng;
    source =
      (match Rng.int rng 3 with
      | 0 -> Proto.Exact
      | 1 -> Proto.Approx_fallback
      | _ -> Proto.Best_so_far);
  }

let gen_request rng =
  match Rng.int rng 9 with
  | 0 -> Proto.Ping
  | 1 ->
      Proto.Solve_weighted
        {
          radius = Rng.float rng 3.;
          deadline = (if Rng.bool rng then Some (Rng.float rng 2.) else None);
          points =
            Array.init (Rng.int rng 20) (fun _ ->
                (Rng.gaussian rng, Rng.gaussian rng, Rng.float rng 1.));
        }
  | 2 ->
      let n = Rng.int rng 20 in
      Proto.Solve_colored
        {
          radius = Rng.float rng 3.;
          deadline = None;
          seed = Rng.int rng 1000;
          max_shifts = (if Rng.bool rng then Some (Rng.int rng 5) else None);
          points =
            Array.init n (fun _ -> (Rng.gaussian rng, Rng.gaussian rng));
          colors = Array.init n (fun _ -> Rng.int rng 8);
        }
  | 3 ->
      Proto.Solve_static
        {
          radius = Rng.float rng 3.;
          epsilon = 0.1 +. Rng.float rng 0.3;
          seed = Rng.int rng 1000;
          max_shifts = None;
          points =
            Array.init (Rng.int rng 20) (fun _ ->
                (Rng.gaussian rng, Rng.gaussian rng, Rng.float rng 1.));
        }
  | 4 ->
      Proto.Solve_interval
        {
          len = Rng.float rng 5.;
          points =
            Array.init (Rng.int rng 20) (fun _ ->
                (Rng.gaussian rng, Rng.float rng 1.));
        }
  | 5 ->
      Proto.Insert
        {
          x = Rng.gaussian rng;
          y = Rng.gaussian rng;
          weight = Rng.float rng 2.;
        }
  | 6 -> Proto.Delete { handle = Rng.int rng 10000 }
  | 7 -> Proto.Query
  | _ -> Proto.Stats

let gen_reply rng =
  match Rng.int rng 7 with
  | 0 -> Proto.Pong
  | 1 ->
      let a = gen_answer rng in
      Proto.Solved
        (match Rng.int rng 3 with
        | 0 -> Outcome.Complete a
        | 1 -> Outcome.Degraded a
        | _ -> Outcome.Partial a)
  | 2 ->
      Proto.Inserted { handle = Rng.int rng 10000; seq = Rng.int rng 10000 }
  | 3 -> Proto.Deleted { seq = Rng.int rng 10000 }
  | 4 ->
      Proto.Best
        (if Rng.bool rng then
           Some (Rng.gaussian rng, Rng.gaussian rng, Rng.float rng 9.)
         else None)
  | 5 ->
      Proto.Stats_reply
        {
          Proto.uptime_s = Rng.float rng 100.;
          conns_active = Rng.int rng 10;
          queue_depth = Rng.int rng 10;
          inflight = Rng.int rng 10;
          accepted = Rng.int rng 1000;
          rejected = Rng.int rng 1000;
          completed = Rng.int rng 1000;
          degraded = Rng.int rng 1000;
          partial = Rng.int rng 1000;
          invalid = Rng.int rng 1000;
          protocol_errors = Rng.int rng 1000;
          timeouts = Rng.int rng 1000;
          disconnects = Rng.int rng 1000;
          p50_us = Rng.int rng 100000;
          p99_us = Rng.int rng 1000000;
          latency_buckets =
            Array.init (Rng.int rng 10) (fun i -> (i, Rng.int rng 100));
        }
  | _ ->
      Proto.Error_reply
        {
          code =
            (match Rng.int rng 6 with
            | 0 -> Proto.Overloaded
            | 1 -> Proto.Invalid
            | 2 -> Proto.Malformed_request
            | 3 -> Proto.Shutting_down
            | 4 -> Proto.Too_large
            | _ -> Proto.Internal);
          retry_after_ms = Rng.int rng 1000;
          msg = String.init (Rng.int rng 40) (fun _ -> Char.chr (32 + Rng.int rng 90));
        }

let test_proto_roundtrip () =
  let rng = Rng.create 5 in
  for i = 0 to 299 do
    let id = Rng.int rng 1000000 in
    let req = gen_request rng in
    (match Proto.decode_request (Proto.encode_request ~id req) with
    | Ok (id', req') ->
        Alcotest.(check bool)
          (Printf.sprintf "request %d round trips" i)
          true
          (id = id' && req = req')
    | Error m -> Alcotest.fail ("request decode: " ^ m));
    let reply = gen_reply rng in
    match Proto.decode_reply (Proto.encode_reply ~id reply) with
    | Ok (id', reply') ->
        Alcotest.(check bool)
          (Printf.sprintf "reply %d round trips" i)
          true
          (id = id' && reply = reply')
    | Error m -> Alcotest.fail ("reply decode: " ^ m)
  done

let qcheck_proto_garbage_total =
  QCheck.Test.make ~count:500
    ~name:"proto: decoding garbage is Error, never an exception"
    QCheck.(string_gen Gen.char)
    (fun s ->
      (match Proto.decode_request s with Ok _ | Error _ -> true)
      && match Proto.decode_reply s with Ok _ | Error _ -> true)

let qcheck_proto_mutation_total =
  QCheck.Test.make ~count:500
    ~name:"proto: bit-flipped encodings decode totally"
    QCheck.(pair small_nat small_nat)
    (fun (i, b) ->
      let rng = Rng.create (i + (b * 1000)) in
      let s = Proto.encode_request ~id:7 (gen_request rng) in
      let by = Bytes.of_string s in
      let i = i mod Bytes.length by in
      Bytes.set by i
        (Char.chr (Char.code (Bytes.get by i) lxor (1 + (b mod 255))));
      match Proto.decode_request (Bytes.unsafe_to_string by) with
      | Ok _ | Error _ -> true)

(* The [Buffer] encoder that the exact-size one replaced, kept as the
   reference for its bytes. *)
module Ref_encoder = struct
  let source_to_u8 = function
    | Proto.Exact -> 0
    | Proto.Approx_fallback -> 1
    | Proto.Best_so_far -> 2

  let err_code_to_u8 = function
    | Proto.Overloaded -> 0
    | Proto.Invalid -> 1
    | Proto.Malformed_request -> 2
    | Proto.Shutting_down -> 3
    | Proto.Too_large -> 4
    | Proto.Internal -> 5

  let string_ b s =
    Codec.int_ b (String.length s);
    Buffer.add_string b s

  let xyw b (x, y, w) =
    Codec.f64 b x;
    Codec.f64 b y;
    Codec.f64 b w

  let xy b (x, y) =
    Codec.f64 b x;
    Codec.f64 b y

  let array_ enc b a =
    Codec.int_ b (Array.length a);
    Array.iter (enc b) a

  let encode_request ~id req =
    let b = Buffer.create 64 in
    Codec.u8 b Proto.version;
    Codec.int_ b id;
    (match req with
    | Proto.Ping -> Codec.u8 b 0
    | Proto.Solve_weighted { radius; deadline; points } ->
        Codec.u8 b 1;
        Codec.f64 b radius;
        Codec.opt Codec.f64 b deadline;
        array_ xyw b points
    | Proto.Solve_colored { radius; deadline; seed; max_shifts; points; colors }
      ->
        Codec.u8 b 2;
        Codec.f64 b radius;
        Codec.opt Codec.f64 b deadline;
        Codec.int_ b seed;
        Codec.opt Codec.int_ b max_shifts;
        array_ xy b points;
        Codec.int_array b colors
    | Proto.Solve_static { radius; epsilon; seed; max_shifts; points } ->
        Codec.u8 b 3;
        Codec.f64 b radius;
        Codec.f64 b epsilon;
        Codec.int_ b seed;
        Codec.opt Codec.int_ b max_shifts;
        array_ xyw b points
    | Proto.Solve_interval { len; points } ->
        Codec.u8 b 4;
        Codec.f64 b len;
        array_ xy b points
    | Proto.Insert { x; y; weight } ->
        Codec.u8 b 5;
        Codec.f64 b x;
        Codec.f64 b y;
        Codec.f64 b weight
    | Proto.Delete { handle } ->
        Codec.u8 b 6;
        Codec.int_ b handle
    | Proto.Query -> Codec.u8 b 7
    | Proto.Stats -> Codec.u8 b 8
    | Proto.Range_sum { lo; hi } ->
        Codec.u8 b 9;
        Codec.f64 b lo;
        Codec.f64 b hi);
    Buffer.contents b

  let answer_ b (a : Proto.answer) =
    Codec.f64 b a.x;
    Codec.f64 b a.y;
    Codec.f64 b a.value;
    Codec.bool_ b a.verified;
    Codec.u8 b (source_to_u8 a.source)

  let encode_reply ~id reply =
    let b = Buffer.create 64 in
    Codec.u8 b Proto.version;
    Codec.int_ b id;
    (match reply with
    | Proto.Pong -> Codec.u8 b 0
    | Proto.Solved outcome ->
        Codec.u8 b 1;
        Codec.u8 b
          (match outcome with
          | Outcome.Complete _ -> 0
          | Outcome.Degraded _ -> 1
          | Outcome.Partial _ -> 2);
        answer_ b (Outcome.value outcome)
    | Proto.Inserted { handle; seq } ->
        Codec.u8 b 2;
        Codec.int_ b handle;
        Codec.int_ b seq
    | Proto.Deleted { seq } ->
        Codec.u8 b 3;
        Codec.int_ b seq
    | Proto.Best best ->
        Codec.u8 b 4;
        Codec.opt xyw b best
    | Proto.Stats_reply s ->
        Codec.u8 b 5;
        Codec.f64 b s.uptime_s;
        Codec.int_ b s.conns_active;
        Codec.int_ b s.queue_depth;
        Codec.int_ b s.inflight;
        Codec.int_ b s.accepted;
        Codec.int_ b s.rejected;
        Codec.int_ b s.completed;
        Codec.int_ b s.degraded;
        Codec.int_ b s.partial;
        Codec.int_ b s.invalid;
        Codec.int_ b s.protocol_errors;
        Codec.int_ b s.timeouts;
        Codec.int_ b s.disconnects;
        Codec.int_ b s.p50_us;
        Codec.int_ b s.p99_us;
        array_
          (fun b (i, c) ->
            Codec.int_ b i;
            Codec.int_ b c)
          b s.latency_buckets
    | Proto.Error_reply { code; retry_after_ms; msg } ->
        Codec.u8 b 6;
        Codec.u8 b (err_code_to_u8 code);
        Codec.int_ b retry_after_ms;
        string_ b msg
    | Proto.Range_best { seg; epoch; lag_ops } ->
        Codec.u8 b 7;
        Codec.opt
          (fun b (l, h, s) ->
            Codec.int_ b l;
            Codec.int_ b h;
            Codec.f64 b s)
          b seg;
        Codec.int_ b epoch;
        Codec.int_ b lag_ops);
    Buffer.contents b
end

(* Floats whose bits a codec could lose: signed zeros, NaN payloads,
   infinities, subnormals and the extremes. *)
let edge_floats =
  [|
    0.;
    -0.;
    Int64.float_of_bits 0x7FF8_0000_0000_0001L;
    Int64.float_of_bits 0xFFF4_0000_0000_ABCDL;
    Float.infinity;
    Float.neg_infinity;
    5e-324;
    -2.2250738585072e-308;
    Float.max_float;
    1e308;
    -1.5;
  |]

let edge_requests =
  let f i = edge_floats.(i mod Array.length edge_floats) in
  let pairs n = Array.init n (fun i -> (f i, f (i + 3))) in
  let triples n = Array.init n (fun i -> (f i, f (i + 1), f (i + 5))) in
  List.concat_map
    (fun n ->
      [
        Proto.Ping;
        Proto.Solve_weighted
          { radius = f n; deadline = None; points = triples n };
        Proto.Solve_weighted
          { radius = 1.; deadline = Some (f (n + 2)); points = triples n };
        Proto.Solve_colored
          {
            radius = f (n + 1);
            deadline = Some (-0.);
            seed = -n;
            max_shifts = None;
            points = pairs n;
            colors = Array.init n (fun i -> (i * max_int) - n);
          };
        Proto.Solve_colored
          {
            radius = 2.;
            deadline = None;
            seed = max_int;
            max_shifts = Some min_int;
            points = pairs n;
            colors = Array.init n (fun i -> -i);
          };
        Proto.Solve_static
          {
            radius = f n;
            epsilon = f (n + 4);
            seed = n;
            max_shifts = Some n;
            points = triples n;
          };
        Proto.Solve_static
          {
            radius = 1.;
            epsilon = 0.25;
            seed = 0;
            max_shifts = None;
            points = triples n;
          };
        Proto.Solve_interval { len = f (n + 6); points = pairs n };
        Proto.Insert { x = f n; y = f (n + 1); weight = f (n + 2) };
        Proto.Delete { handle = min_int + n };
        Proto.Query;
        Proto.Stats;
        Proto.Range_sum { lo = f n; hi = f (n + 7) };
      ])
    [ 0; 1; 2; 11 ]

let edge_replies =
  let f i = edge_floats.(i mod Array.length edge_floats) in
  let answer i =
    {
      Proto.x = f i;
      y = f (i + 1);
      value = f (i + 2);
      verified = i mod 2 = 0;
      source =
        (match i mod 3 with
        | 0 -> Proto.Exact
        | 1 -> Proto.Approx_fallback
        | _ -> Proto.Best_so_far);
    }
  in
  List.concat_map
    (fun i ->
      [
        Proto.Pong;
        Proto.Solved (Outcome.Complete (answer i));
        Proto.Solved (Outcome.Degraded (answer (i + 1)));
        Proto.Solved (Outcome.Partial (answer (i + 2)));
        Proto.Inserted { handle = i; seq = max_int - i };
        Proto.Deleted { seq = -i };
        Proto.Best None;
        Proto.Best (Some (f i, f (i + 4), f (i + 8)));
        Proto.Stats_reply
          {
            Proto.uptime_s = f i;
            conns_active = i;
            queue_depth = -i;
            inflight = max_int;
            accepted = min_int;
            rejected = 1;
            completed = 2;
            degraded = 3;
            partial = 4;
            invalid = 5;
            protocol_errors = 6;
            timeouts = 7;
            disconnects = 8;
            p50_us = 9;
            p99_us = 10;
            latency_buckets = Array.init i (fun j -> (j, (j * 7) - i));
          };
        Proto.Error_reply
          {
            code =
              (match i mod 6 with
              | 0 -> Proto.Overloaded
              | 1 -> Proto.Invalid
              | 2 -> Proto.Malformed_request
              | 3 -> Proto.Shutting_down
              | 4 -> Proto.Too_large
              | _ -> Proto.Internal);
            retry_after_ms = i * 13;
            msg = String.make i 'm';
          };
        Proto.Range_best { seg = None; epoch = 0; lag_ops = i };
        Proto.Range_best
          { seg = Some (i, (2 * i) + 1, f (i + 9)); epoch = i; lag_ops = -i };
      ])
    [ 0; 1; 2; 3; 4; 5 ]

let test_encoder_matches_reference () =
  List.iteri
    (fun k req ->
      List.iter
        (fun id ->
          let s = Proto.encode_request ~id req in
          if s <> Ref_encoder.encode_request ~id req then
            Alcotest.failf "request %d, id %d: bytes differ" k id;
          match Proto.decode_request s with
          | Ok (id', req') ->
              if id' <> id || Proto.encode_request ~id req' <> s then
                Alcotest.failf "request %d does not round trip" k
          | Error m -> Alcotest.failf "request %d: %s" k m)
        [ 0; 7; -1; max_int; min_int ])
    edge_requests;
  List.iteri
    (fun k reply ->
      List.iter
        (fun id ->
          let s = Proto.encode_reply ~id reply in
          if s <> Ref_encoder.encode_reply ~id reply then
            Alcotest.failf "reply %d, id %d: bytes differ" k id;
          match Proto.decode_reply s with
          | Ok (id', reply') ->
              if id' <> id || Proto.encode_reply ~id reply' <> s then
                Alcotest.failf "reply %d does not round trip" k
          | Error m -> Alcotest.failf "reply %d: %s" k m)
        [ 0; 7; -1; max_int; min_int ])
    edge_replies

(* Every proper prefix of a point-carrying request, and a length field
   one point past the bytes, decode to an ordinary [Error]: the codec's
   own [Malformed], never an exception caught as a decoder bug. *)
let test_truncated_points_are_errors () =
  let pairs = [| (1., 2.); (3., -4.); (0.5, 0.25) |] in
  let cases =
    [
      (Proto.Solve_interval { len = 1.5; points = pairs }, [ 18 ]);
      ( Proto.Solve_weighted
          {
            radius = 1.;
            deadline = None;
            points = Array.map (fun (x, y) -> (x, y, 1.)) pairs;
          },
        [ 19 ] );
      ( Proto.Solve_colored
          {
            radius = 1.;
            deadline = None;
            seed = 3;
            max_shifts = None;
            points = pairs;
            colors = [| 4; -5; 6 |];
          },
        [ 28; 28 + 8 + 48 ] );
    ]
  in
  let expect_error what s =
    match Proto.decode_request s with
    | Ok _ -> Alcotest.failf "%s decoded" what
    | Error m ->
        if contains ~needle:"decoder bug" m then
          Alcotest.failf "%s raised: %s" what m
  in
  List.iter
    (fun (req, len_fields) ->
      let s = Proto.encode_request ~id:9 req in
      for k = 0 to String.length s - 1 do
        expect_error (Printf.sprintf "prefix %d of %d" k (String.length s))
          (String.sub s 0 k)
      done;
      List.iter
        (fun off ->
          let b = Bytes.of_string s in
          Bytes.set_int64_le b off (Int64.add (Bytes.get_int64_le b off) 1L);
          expect_error
            (Printf.sprintf "length at %d plus one" off)
            (Bytes.to_string b))
        len_fields)
    cases

let interval_request ?(seed = 11) n =
  let rng = Rng.create seed in
  Proto.Solve_interval
    {
      len = 25.;
      points =
        Array.init n (fun _ ->
            (Rng.uniform rng 0. 1000., Rng.uniform rng (-1.) 3.));
    }

(* The 12,000-pair interval request is encoded into one exact-size
   string with no boxed float and no buffer growth, and decoded with
   nothing allocated beyond the wire type's tuples and their floats. *)
let test_codec_allocation () =
  let req = interval_request 12_000 in
  let minor_words f =
    Gc.minor ();
    let w0 = Gc.minor_words () in
    let r = f () in
    (r, Gc.minor_words () -. w0)
  in
  let s, enc = minor_words (fun () -> Proto.encode_request ~id:1 req) in
  if enc > 32. then Alcotest.failf "encode: %.0f minor words (bound 32)" enc;
  let r, dec = minor_words (fun () -> Proto.decode_request s) in
  Alcotest.(check bool) "decodes" true (Result.is_ok r);
  let bound = float_of_int ((7 * 12_000) + 64) in
  if dec > bound then
    Alcotest.failf "decode: %.0f minor words (bound %.0f)" dec bound

(* ------------------------------------------------------------------ *)
(* End-to-end basics *)

let test_basic_solve_bit_identity () =
  with_server (fun _t addr ->
      let pts = instance 300 in
      let local =
        match Resilient.exact_weighted ~radius:1. pts with
        | Ok o -> Outcome.value o
        | Error _ -> Alcotest.fail "local solve failed"
      in
      let c = Client.create addr in
      ok_or_fail "ping" (Client.ping c);
      let remote =
        Outcome.value (ok_or_fail "solve" (Client.solve_weighted c ~radius:1. pts))
      in
      check_answer_bits "weighted" remote ~x:local.Resilient.wx
        ~y:local.Resilient.wy ~value:local.Resilient.value;
      (* same request again: replies are deterministic *)
      let again =
        Outcome.value (ok_or_fail "solve" (Client.solve_weighted c ~radius:1. pts))
      in
      Alcotest.(check bool) "repeat identical" true (remote = again);
      Client.close c)

let test_invalid_input () =
  with_server (fun _t addr ->
      let c = Client.create addr in
      (match Client.solve_weighted c ~radius:(-1.) (instance 5) with
      | Error (Client.Server { code = Proto.Invalid; _ }) -> ()
      | Error e -> Alcotest.fail (Client.error_to_string e)
      | Ok _ -> Alcotest.fail "negative radius accepted");
      (* connection still serves after a rejected request *)
      ok_or_fail "ping after invalid" (Client.ping c);
      Client.close c)

let test_deadline_degrades () =
  with_server (fun _t addr ->
      let c = Client.create addr in
      let pts = instance 4000 in
      let outcome =
        ok_or_fail "solve"
          (Client.solve_weighted ~deadline:0.002 c ~radius:1. pts)
      in
      Alcotest.(check bool)
        "tiny deadline degrades" false
        (Outcome.is_complete outcome);
      (* the degraded answer still carries its provenance *)
      (match Outcome.value outcome with
      | { Proto.source = Proto.Approx_fallback | Proto.Best_so_far; _ } -> ()
      | _ -> Alcotest.fail "degraded answer claims Exact source");
      Client.close c)

let test_session_ops () =
  let wal = fresh_path ".wal" in
  with_server
    ~tune:(fun c -> { c with Server.wal = Some wal; fsync = Wal.Always })
    (fun _t addr ->
      let c = Client.create addr in
      let h0, s0 = ok_or_fail "ins" (Client.insert c ~x:0. ~y:0. ~weight:2.) in
      let _h1, s1 = ok_or_fail "ins" (Client.insert c ~x:0.5 ~y:0. ~weight:3.) in
      let _h2, s2 = ok_or_fail "ins" (Client.insert c ~x:9. ~y:9. ~weight:1.) in
      Alcotest.(check (list int)) "seqs advance" [ 1; 2; 3 ] [ s0; s1; s2 ];
      let best = ok_or_fail "query" (Client.query c) in
      (match best with
      | Some (_, _, v) -> Alcotest.(check (float 1e-9)) "best=5" 5. v
      | None -> Alcotest.fail "no best");
      let s3 = ok_or_fail "del" (Client.delete c ~handle:h0) in
      Alcotest.(check int) "delete seq" 4 s3;
      (match Client.delete c ~handle:h0 with
      | Error (Client.Server { code = Proto.Invalid; _ }) -> ()
      | _ -> Alcotest.fail "double delete accepted");
      Client.close c)

(* The read tier over the wire: [Range_sum] answers from the
   epoch-swapped RMSQ index once the background builder catches up
   (epoch > 0, lag 0), from the bit-identical fallback scan before
   that (epoch = 0); either way the segment is exact. *)
let test_range_sum () =
  let wal = fresh_path ".wal" in
  with_server
    ~tune:(fun c -> { c with Server.wal = Some wal })
    (fun _t addr ->
      let c = Client.create addr in
      ignore (ok_or_fail "ins" (Client.insert c ~x:0. ~y:0. ~weight:2.));
      ignore (ok_or_fail "ins" (Client.insert c ~x:0.5 ~y:0. ~weight:3.));
      ignore (ok_or_fail "ins" (Client.insert c ~x:9. ~y:9. ~weight:1.));
      (* an early read may serve a stale epoch — that's the model — but
         the answer must be exact for SOME prefix of the insert order *)
      (match
         ok_or_fail "range" (Client.range_sum c ~lo:neg_infinity ~hi:infinity)
       with
      | None, _, _ -> ()
      | Some (0, 0, s), _, _ when bits s = bits 2. -> ()
      | Some (0, 1, s), _, _ when bits s = bits 5. -> ()
      | Some (0, 2, s), _, _ when bits s = bits 6. -> ()
      | Some _, _, _ -> Alcotest.fail "answer matches no insert prefix");
      let check_full (seg, _epoch, _lag) =
        match seg with
        | Some (0, 2, s) when bits s = bits 6. -> ()
        | _ -> Alcotest.fail "wrong full-range segment"
      in
      (* the builder must converge: epoch > 0 and lag 0 *)
      let deadline = Unix.gettimeofday () +. 10. in
      let rec warm () =
        match
          ok_or_fail "range" (Client.range_sum c ~lo:neg_infinity ~hi:infinity)
        with
        | (_, epoch, 0) as r when epoch > 0 ->
            check_full r;
            true
        | _ when Unix.gettimeofday () < deadline ->
            Unix.sleepf 0.01;
            warm ()
        | _ -> false
      in
      Alcotest.(check bool) "index epoch serves with lag 0" true (warm ());
      (* coordinate sub-range: x in [0, 1] covers weights 2 and 3 *)
      (match ok_or_fail "subrange" (Client.range_sum c ~lo:0. ~hi:1.) with
      | Some (0, 1, s), epoch, _ when epoch > 0 ->
          Alcotest.(check bool) "subrange sum bits" true (bits s = bits 5.)
      | _ -> Alcotest.fail "wrong subrange answer");
      (* empty coordinate range *)
      (match ok_or_fail "empty" (Client.range_sum c ~lo:100. ~hi:200.) with
      | None, _, _ -> ()
      | Some _, _, _ -> Alcotest.fail "empty range answered a segment");
      (* NaN bounds are invalid, not a crash *)
      (match Client.range_sum c ~lo:nan ~hi:1. with
      | Error (Client.Server { code = Proto.Invalid; _ }) -> ()
      | _ -> Alcotest.fail "NaN bound accepted");
      Client.close c)

(* With the index disabled every read takes the fallback scan —
   epoch stays 0 and answers are still exact. *)
let test_range_sum_no_index () =
  let wal = fresh_path ".wal" in
  with_server
    ~tune:(fun c -> { c with Server.wal = Some wal; index = false })
    (fun _t addr ->
      let c = Client.create addr in
      ignore (ok_or_fail "ins" (Client.insert c ~x:1. ~y:0. ~weight:4.));
      ignore (ok_or_fail "ins" (Client.insert c ~x:2. ~y:0. ~weight:7.));
      (match ok_or_fail "range" (Client.range_sum c ~lo:0. ~hi:3.) with
      | Some (0, 1, s), 0, 0 ->
          Alcotest.(check bool) "fallback sum bits" true (bits s = bits 11.)
      | _ -> Alcotest.fail "fallback answer wrong or epoch nonzero");
      Client.close c)

let test_no_session_is_invalid () =
  with_server (fun _t addr ->
      let c = Client.create addr in
      (match Client.insert c ~x:0. ~y:0. ~weight:1. with
      | Error (Client.Server { code = Proto.Invalid; msg; _ }) ->
          Alcotest.(check bool) "mentions --wal" true (contains ~needle:"wal" msg)
      | _ -> Alcotest.fail "insert without session accepted");
      Client.close c)

(* ------------------------------------------------------------------ *)
(* Admission control *)

let test_admission_control () =
  with_server
    ~tune:(fun c -> { c with Server.workers = 1; queue_cap = 1 })
    (fun t addr ->
      let pts = instance 1500 in
      let n = 8 in
      let results = Array.make n None in
      let threads =
        List.init n (fun i ->
            Thread.create
              (fun () ->
                let c = Client.create addr in
                (* single-shot: a rejection must surface, not retry *)
                results.(i) <-
                  Some
                    (Client.request c
                       (Proto.Solve_weighted
                          { radius = 1.; deadline = None; points = pts }));
                Client.close c)
              ())
      in
      List.iter Thread.join threads;
      let solved = ref 0 and rejected = ref 0 and other = ref 0 in
      Array.iter
        (function
          | Some (Ok (Proto.Solved _)) -> incr solved
          | Some (Error (Client.Server { code = Proto.Overloaded; retry_after_ms; _ }))
            ->
              Alcotest.(check bool)
                "overloaded carries retry hint" true (retry_after_ms > 0);
              incr rejected
          | _ -> incr other)
        results;
      Alcotest.(check int) "no unexplained outcomes" 0 !other;
      Alcotest.(check bool) "some requests solved" true (!solved >= 1);
      Alcotest.(check bool)
        (Printf.sprintf "queue bound sheds load (solved=%d rejected=%d)"
           !solved !rejected)
        true (!rejected >= 1);
      (* shed load is visible in the stats, and the daemon still serves *)
      let s = Server.stats t in
      Alcotest.(check bool) "stats counts rejects" true (s.Proto.rejected >= 1);
      let c = Client.create addr in
      ok_or_fail "ping after storm" (Client.ping c);
      Client.close c)

(* ------------------------------------------------------------------ *)
(* Hardened connection path: raw-socket abuse *)

let raw_connect addr =
  match Netio.connect addr with
  | Ok fd -> fd
  | Error m -> Alcotest.fail ("connect: " ^ m)

let expect_error_reply what fd code =
  match Netio.recv ~idle:5. ~frame:5. ~max_frame:(1 lsl 23) fd with
  | Ok payload -> (
      match Proto.decode_reply payload with
      | Ok (_, Proto.Error_reply { code = c; _ }) ->
          Alcotest.(check bool)
            (what ^ ": structured error code") true (c = code)
      | Ok _ -> Alcotest.fail (what ^ ": expected an error reply")
      | Error m -> Alcotest.fail (what ^ ": undecodable reply: " ^ m))
  | Error e -> Alcotest.fail (what ^ ": no reply: " ^ Netio.error_to_string e)

let assert_alive addr what =
  let c = Client.create addr in
  ok_or_fail what (Client.ping c);
  Client.close c

let test_malformed_payload_keeps_connection () =
  with_server (fun _t addr ->
      let fd = raw_connect addr in
      (* a well-framed, CRC-valid frame whose payload is garbage: the
         stream stays in sync, so the connection must survive *)
      (match Netio.send fd "\x42 this is not a request" with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Netio.error_to_string e));
      expect_error_reply "garbage payload" fd Proto.Malformed_request;
      (match Netio.send fd (Proto.encode_request ~id:9 Proto.Ping) with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Netio.error_to_string e));
      (match Netio.recv ~idle:5. ~frame:5. ~max_frame:(1 lsl 23) fd with
      | Ok p -> (
          match Proto.decode_reply p with
          | Ok (9, Proto.Pong) -> ()
          | _ -> Alcotest.fail "same connection no longer serves")
      | Error e -> Alcotest.fail (Netio.error_to_string e));
      Netio.close_noerr fd)

let test_crc_flip_rejected () =
  with_server (fun t addr ->
      let fd = raw_connect addr in
      let frame = Netio.frame_bytes (Proto.encode_request ~id:3 Proto.Ping) in
      (* flip one payload bit: the CRC no longer matches *)
      Bytes.set frame 10 (Char.chr (Char.code (Bytes.get frame 10) lxor 0x01));
      let _ = Unix.write fd frame 0 (Bytes.length frame) in
      expect_error_reply "crc flip" fd Proto.Malformed_request;
      Netio.close_noerr fd;
      assert_alive addr "alive after crc flip";
      let s = Server.stats t in
      Alcotest.(check bool)
        "protocol error counted" true
        (s.Proto.protocol_errors >= 1))

let test_oversized_rejected () =
  with_server
    ~tune:(fun c -> { c with Server.max_frame = 4096 })
    (fun _t addr ->
      let fd = raw_connect addr in
      let hdr = Bytes.create 8 in
      Bytes.set_int32_le hdr 0 0x7FFFFF00l;
      Bytes.set_int32_le hdr 4 0l;
      let _ = Unix.write fd hdr 0 8 in
      expect_error_reply "oversized header" fd Proto.Too_large;
      Netio.close_noerr fd;
      assert_alive addr "alive after oversized")

let test_torn_frame_and_disconnect () =
  with_server (fun t addr ->
      (* half a header, then vanish *)
      let fd = raw_connect addr in
      let _ = Unix.write fd (Bytes.make 4 'x') 0 4 in
      Netio.close_noerr fd;
      (* half a large frame body, then vanish mid-request *)
      let fd = raw_connect addr in
      let frame =
        Netio.frame_bytes
          (Proto.encode_request ~id:4
             (Proto.Solve_weighted
                { radius = 1.; deadline = None; points = instance 500 }))
      in
      let half = Bytes.length frame / 2 in
      let _ = Unix.write fd frame 0 half in
      Netio.close_noerr fd;
      (* give the reader threads a beat to observe both EOFs *)
      let deadline = Unix.gettimeofday () +. 5. in
      let rec wait () =
        let s = Server.stats t in
        if s.Proto.protocol_errors + s.Proto.disconnects >= 2 then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "torn frames not observed"
        else (
          Thread.delay 0.02;
          wait ())
      in
      wait ();
      assert_alive addr "alive after torn frames")

let test_slow_loris_cut () =
  with_server
    ~tune:(fun c -> { c with Server.read_deadline = 0.2 })
    (fun _t addr ->
      let fd = raw_connect addr in
      let frame = Netio.frame_bytes (Proto.encode_request ~id:5 Proto.Ping) in
      (* trickle 3 bytes, then stall past the read deadline *)
      let _ = Unix.write fd frame 0 3 in
      Thread.delay 0.5;
      (* server must have cut us off: the rest of the frame cannot buy
         a reply, and the socket reads EOF *)
      let _ = try Unix.write fd frame 3 (Bytes.length frame - 3) with _ -> 0 in
      (match Netio.recv ~idle:2. ~frame:2. ~max_frame:(1 lsl 23) fd with
      | Error (Netio.Closed | Netio.Torn | Netio.Sys _) -> ()
      | Error e -> Alcotest.fail ("expected cut: " ^ Netio.error_to_string e)
      | Ok _ -> Alcotest.fail "slow-loris got a reply");
      Netio.close_noerr fd;
      assert_alive addr "alive after slow loris")

(* ------------------------------------------------------------------ *)
(* Drain semantics (in-process) *)

let test_drain_rejects_new_work () =
  with_server (fun t addr ->
      let c = Client.create addr in
      ok_or_fail "ping before drain" (Client.ping c);
      Server.begin_drain t;
      (match Client.request c Proto.Query with
      | Error (Client.Server { code = Proto.Shutting_down; _ }) -> ()
      | Error e -> Alcotest.fail (Client.error_to_string e)
      | Ok _ -> Alcotest.fail "drained server accepted work");
      Client.close c;
      (* new connections are refused during drain *)
      let c2 = Client.create addr in
      (match Client.request c2 Proto.Ping with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "drained server accepted a connection");
      Client.close c2;
      Server.wait t)

(* ------------------------------------------------------------------ *)
(* Served connections: the buffered reader, and reads answered on the
   connection thread *)

let send_raw fd b =
  let n = Bytes.length b in
  Alcotest.(check int) "raw write complete" n (Unix.write fd b 0 n)

let frames reqs =
  Bytes.concat Bytes.empty
    (List.map
       (fun (id, req) -> Netio.frame_bytes (Proto.encode_request ~id req))
       reqs)

let recv_reply what fd =
  match Netio.recv ~idle:10. ~frame:10. ~max_frame:(1 lsl 23) fd with
  | Error e -> Alcotest.fail (what ^ ": " ^ Netio.error_to_string e)
  | Ok p -> (
      match Proto.decode_reply p with
      | Ok r -> r
      | Error m -> Alcotest.fail (what ^ ": undecodable reply: " ^ m))

(* Until the read tier serves an epoch with lag 0. *)
let warm_index c =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec go () =
    match
      ok_or_fail "warm" (Client.range_sum c ~lo:neg_infinity ~hi:infinity)
    with
    | _, epoch, 0 when epoch > 0 -> ()
    | _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        go ()
    | _ -> Alcotest.fail "index never caught up"
  in
  go ()

let with_index_server ?(tune = Fun.id) f =
  let wal = fresh_path ".wal" in
  with_server
    ~tune:(fun c -> tune { c with Server.wal = Some wal })
    (fun t addr ->
      let c = Client.create ~recv_timeout:10. addr in
      ignore (ok_or_fail "ins" (Client.insert c ~x:0. ~y:0. ~weight:2.));
      ignore (ok_or_fail "ins" (Client.insert c ~x:0.5 ~y:0. ~weight:3.));
      warm_index c;
      Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f t addr c))

let test_frames_in_one_write () =
  with_index_server (fun _t addr _c ->
      let fd = raw_connect addr in
      send_raw fd
        (frames
           [
             (1, Proto.Range_sum { lo = neg_infinity; hi = infinity });
             (2, Proto.Query);
           ]);
      (match recv_reply "first" fd with
      | 1, Proto.Range_best { seg = Some (0, 1, s); _ } when bits s = bits 5.
        ->
          ()
      | _ -> Alcotest.fail "first reply is not the range sum");
      (match recv_reply "second" fd with
      | 2, Proto.Best (Some (_, _, v)) when bits v = bits 5. -> ()
      | _ -> Alcotest.fail "second reply is not the query");
      Netio.close_noerr fd)

let test_trickled_frame () =
  with_server (fun _t addr ->
      let fd = raw_connect addr in
      let b = frames [ (6, Proto.Ping) ] in
      Bytes.iteri
        (fun i _ ->
          send_raw fd (Bytes.sub b i 1);
          Thread.delay 0.002)
        b;
      (match recv_reply "trickled" fd with
      | 6, Proto.Pong -> ()
      | _ -> Alcotest.fail "trickled ping not answered");
      Netio.close_noerr fd)

(* 65,536 points make a 1 MiB frame, 64 times the receive buffer. *)
let test_frame_larger_than_buffer () =
  let rng = Rng.create 11 in
  let points =
    Array.init 65_536 (fun _ -> (Rng.uniform rng 0. 1000., Rng.float rng 1.))
  in
  let local =
    match Interval1d.max_sum_checked ~len:10. points with
    | Ok p -> p
    | Error _ -> Alcotest.fail "local solve failed"
  in
  with_server (fun _t addr ->
      let c = Client.create addr in
      (match Client.request c (Proto.Solve_interval { len = 10.; points }) with
      | Ok (Proto.Solved o) ->
          let a = Outcome.value o in
          Alcotest.(check bool)
            "answer bit-identical" true
            (bits a.Proto.x = bits local.Interval1d.lo
            && bits a.Proto.value = bits local.Interval1d.value)
      | _ -> Alcotest.fail "large solve not answered");
      ok_or_fail "ping after large frame" (Client.ping c);
      Client.close c);
  (* The same frame through a bare connection: it bypasses the buffer,
     which keeps its size, and the frame after it is read as usual. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let conn = Netio.Conn.of_fd b in
  let big =
    Proto.encode_request ~id:1 (Proto.Solve_interval { len = 10.; points })
  in
  let small = Proto.encode_request ~id:2 Proto.Ping in
  let writer =
    Thread.create
      (fun () ->
        ignore (Netio.send a big : (unit, Netio.error) result);
        ignore (Netio.send a small : (unit, Netio.error) result))
      ()
  in
  let recv what =
    match Netio.Conn.recv ~max_frame:(1 lsl 23) conn with
    | Ok p -> p
    | Error e -> Alcotest.fail (what ^ ": " ^ Netio.error_to_string e)
  in
  Alcotest.(check bool) "large payload intact" true (recv "large" = big);
  Alcotest.(check bool) "next payload intact" true (recv "small" = small);
  Thread.join writer;
  Alcotest.(check int)
    "buffer stays 16 KiB" 16384
    (Netio.Conn.buffer_bytes conn);
  Netio.close_noerr a;
  Netio.close_noerr b

let test_eof_in_buffered_frame () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let conn = Netio.Conn.of_fd b in
  let whole = frames [ (1, Proto.Ping) ]
  and next = frames [ (2, Proto.Ping) ] in
  (* A whole frame and the start of the next arrive in one read. *)
  send_raw a (Bytes.cat whole (Bytes.sub next 0 5));
  Netio.close_noerr a;
  (match Netio.Conn.recv ~max_frame:4096 conn with
  | Ok p ->
      Alcotest.(check bool)
        "whole frame" true
        (Proto.decode_request p = Ok (1, Proto.Ping))
  | Error e -> Alcotest.fail (Netio.error_to_string e));
  (match Netio.Conn.recv ~max_frame:4096 conn with
  | Error Netio.Torn -> ()
  | Error e -> Alcotest.fail ("expected Torn: " ^ Netio.error_to_string e)
  | Ok _ -> Alcotest.fail "a torn frame was delivered");
  Netio.close_noerr b

(* With one worker busy on a long solve, reads on another connection
   are answered on that connection's own thread. They are pipelined in
   one write: every syscall a thread leaves must win the runtime lock
   back from the solving worker, which yields it only at the runtime's
   50 ms tick, so fewer syscalls keep the reads well clear of the
   solve. *)
let test_reads_pass_a_long_solve () =
  with_index_server
    ~tune:(fun c -> { c with Server.workers = 1 })
    (fun t addr _c ->
      let solved_at = ref Float.infinity in
      let solver =
        Thread.create
          (fun () ->
            let c2 = Client.create addr in
            ignore
              (ok_or_fail "solve"
                 (Client.solve_weighted c2 ~radius:1. (instance 5000)));
            solved_at := Unix.gettimeofday ();
            Client.close c2)
          ()
      in
      let t0 = Unix.gettimeofday () in
      let inflight () = (Server.stats t).Proto.inflight in
      while inflight () = 0 && Unix.gettimeofday () < t0 +. 10. do
        Thread.delay 0.001
      done;
      Alcotest.(check int) "the solve is in flight" 1 (inflight ());
      let reads_from = Unix.gettimeofday () in
      let fd = raw_connect addr in
      send_raw fd
        (frames
           [ (1, Proto.Range_sum { lo = 0.; hi = 1. }); (2, Proto.Query) ]);
      (match recv_reply "range" fd with
      | 1, Proto.Range_best { seg = Some (0, 1, s); epoch; _ }
        when epoch > 0 && bits s = bits 5. ->
          ()
      | _ -> Alcotest.fail "wrong range answer");
      (match recv_reply "query" fd with
      | 2, Proto.Best (Some (_, _, v)) when bits v = bits 5. -> ()
      | _ -> Alcotest.fail "wrong query answer");
      let read_at = Unix.gettimeofday () in
      Netio.close_noerr fd;
      Thread.join solver;
      Alcotest.(check bool)
        (Printf.sprintf
           "reads returned before the solve (reads %.3f s, solve done at \
            %.3f s)"
           (read_at -. reads_from)
           (!solved_at -. reads_from))
        true (read_at < !solved_at))

(* The queue is FIFO and one worker runs it, so a write pipelined ahead
   of a read on the same connection lands first: the read must not
   jump the queue while the write is pending. *)
let test_pipelined_write_then_read () =
  with_index_server
    ~tune:(fun c -> { c with Server.workers = 1 })
    (fun _t addr _c ->
      let fd = raw_connect addr in
      send_raw fd
        (frames
           [
             (1, Proto.Insert { x = 0.25; y = 0.; weight = 7. });
             (2, Proto.Query);
           ]);
      (match recv_reply "insert" fd with
      | 1, Proto.Inserted _ -> ()
      | _ -> Alcotest.fail "insert not acknowledged first");
      (match recv_reply "query" fd with
      | 2, Proto.Best (Some (_, _, v)) when bits v = bits 12. -> ()
      | 2, Proto.Best _ -> Alcotest.fail "the query missed the pipelined insert"
      | _ -> Alcotest.fail "query not answered second");
      Netio.close_noerr fd)

(* Readers never take the session lock: with it held, an indexed
   [Range_sum] is still answered. *)
let test_indexed_read_takes_no_session_lock () =
  with_index_server (fun t _addr c ->
      Server.with_session_lock t (fun () ->
          match Client.range_sum c ~lo:neg_infinity ~hi:infinity with
          | Ok (Some (0, 1, s), epoch, 0) when epoch > 0 && bits s = bits 5.
            ->
              ()
          | Ok _ -> Alcotest.fail "wrong answer under the session lock"
          | Error e ->
              Alcotest.fail
                ("blocked on the session lock: " ^ Client.error_to_string e)))

(* The syscalls of a served read, counted: a closed loop of indexed
   reads costs the server one wait, one read and one write each. *)
let test_syscalls_per_read () =
  with_index_server (fun _t _addr c ->
      let names =
        [ "netio.conn.reads"; "netio.conn.waits"; "netio.conn.writes" ]
      in
      let values () = List.map (fun n -> Obs.value (Obs.counter n)) names in
      let n = 1000 in
      match
        Obs.with_enabled true (fun () ->
            let v0 = values () in
            for i = 1 to n do
              let lo = Float.of_int (i mod 7) /. 10. in
              ignore
                (ok_or_fail "range" (Client.range_sum c ~lo ~hi:(lo +. 1.)))
            done;
            List.map2 ( - ) (values ()) v0)
      with
      | [ reads; waits; writes ] ->
          let per k = Float.of_int k /. Float.of_int n in
          Alcotest.(check bool)
            (Printf.sprintf "reads per request %.3f <= 1.05" (per reads))
            true (per reads <= 1.05);
          Alcotest.(check bool)
            (Printf.sprintf "waits per request %.3f <= 1.05" (per waits))
            true (per waits <= 1.05);
          Alcotest.(check int) "one write per request" n writes
      | _ -> assert false)

(* ------------------------------------------------------------------ *)
(* Client retry/backoff *)

(* A hand-rolled responder: first request gets Overloaded with a
   Retry-After hint, the retry gets its real answer. *)
let test_client_honors_retry_after () =
  let addr = fresh_sock () in
  let lfd =
    match Netio.listen addr with
    | Ok fd -> fd
    | Error m -> Alcotest.fail m
  in
  let hint_ms = 150 in
  let responder =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept lfd in
        (match Netio.recv ~max_frame:(1 lsl 20) fd with
        | Ok p -> (
            match Proto.decode_request p with
            | Ok (id, Proto.Ping) ->
                ignore
                  (Netio.send fd
                     (Proto.encode_reply ~id
                        (Proto.Error_reply
                           {
                             code = Proto.Overloaded;
                             retry_after_ms = hint_ms;
                             msg = "try later";
                           })))
            | _ -> ())
        | Error _ -> ());
        (match Netio.recv ~max_frame:(1 lsl 20) fd with
        | Ok p -> (
            match Proto.decode_request p with
            | Ok (id, Proto.Ping) ->
                ignore (Netio.send fd (Proto.encode_reply ~id Proto.Pong))
            | _ -> ())
        | Error _ -> ());
        Netio.close_noerr fd)
      ()
  in
  let c = Client.create addr in
  let t0 = Unix.gettimeofday () in
  ok_or_fail "retried ping" (Client.ping c);
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "waited at least the hint (%.0f ms)" (elapsed *. 1000.))
    true
    (elapsed >= float_of_int hint_ms /. 1000.);
  Client.close c;
  Thread.join responder;
  Netio.close_noerr lfd

let test_client_never_replays_mutations () =
  (* a responder that reads the insert, then drops the connection
     without replying: the client must NOT silently retry *)
  let addr = fresh_sock () in
  let lfd =
    match Netio.listen addr with
    | Ok fd -> fd
    | Error m -> Alcotest.fail m
  in
  let seen = Atomic.make 0 in
  let responder =
    Thread.create
      (fun () ->
        let continue = ref true in
        while !continue do
          match Unix.select [ lfd ] [] [] 2. with
          | [], _, _ -> continue := false
          | _ ->
              let fd, _ = Unix.accept lfd in
              (match Netio.recv ~max_frame:(1 lsl 20) fd with
              | Ok _ -> Atomic.incr seen
              | Error _ -> ());
              Netio.close_noerr fd
        done)
      ()
  in
  let c = Client.create addr in
  (match Client.insert c ~x:1. ~y:1. ~weight:1. with
  | Error (Client.Net _) -> ()
  | Error e -> Alcotest.fail (Client.error_to_string e)
  | Ok _ -> Alcotest.fail "got a reply from a dropping responder");
  Client.close c;
  Thread.join responder;
  Netio.close_noerr lfd;
  Alcotest.(check int) "insert sent exactly once" 1 (Atomic.get seen)

(* ------------------------------------------------------------------ *)
(* Chaos: the deterministic fault proxy *)

let test_fault_proxy_chaos () =
  with_server
    ~tune:(fun c -> { c with Server.read_deadline = 0.15; idle_timeout = 5. })
    (fun t addr ->
      let pts = instance 250 in
      let direct =
        let c = Client.create addr in
        let a =
          Outcome.value
            (ok_or_fail "direct solve" (Client.solve_weighted c ~radius:1. pts))
        in
        Client.close c;
        a
      in
      let paddr = fresh_sock () in
      (* MAXRS_NET_FAULTS overrides the schedule so CI can replay other
         seeds; the default keeps local runs deterministic *)
      let cfg =
        match Net_faults.of_env () with
        | Some c -> { c with Net_faults.rate = Float.min c.Net_faults.rate 0.3 }
        | None -> { Net_faults.seed = 3; rate = 0.12 }
      in
      let proxy =
        match Net_faults.start ~listen:paddr ~upstream:addr cfg with
        | Ok p -> p
        | Error m -> Alcotest.fail ("proxy: " ^ m)
      in
      let n = 18 in
      let results = Array.make n None in
      for i = 0 to n - 1 do
        let c = Client.create ~recv_timeout:3. ~send_timeout:3. paddr in
        results.(i) <-
          Some
            (Client.request c
               (Proto.Solve_weighted
                  { radius = 1.; deadline = None; points = pts }));
        Client.close c
      done;
      (* let the proxy settle, then read its deterministic record *)
      Thread.delay 0.2;
      let faulted = Net_faults.faulted_connections proxy in
      Net_faults.shutdown proxy;
      Alcotest.(check bool)
        (Printf.sprintf "faults were injected (%d conns)" (List.length faulted))
        true
        (List.length faulted >= 1);
      Array.iteri
        (fun i r ->
          let conn = i + 1 in
          if not (List.mem conn faulted) then
            match r with
            | Some (Ok (Proto.Solved o)) ->
                check_answer_bits
                  (Printf.sprintf "unfaulted conn %d" conn)
                  (Outcome.value o) ~x:direct.Proto.x ~y:direct.Proto.y
                  ~value:direct.Proto.value
            | Some (Error e) ->
                Alcotest.fail
                  (Printf.sprintf "unfaulted conn %d failed: %s" conn
                     (Client.error_to_string e))
            | _ -> Alcotest.fail "unfaulted conn: unexpected reply")
        results;
      (* the daemon survived the storm *)
      assert_alive addr "alive after chaos";
      let s = Server.stats t in
      Alcotest.(check bool) "served through faults" true (s.Proto.completed >= n - List.length faulted))

let test_fault_schedule_deterministic () =
  let cfg = { Net_faults.seed = 11; rate = 0.3 } in
  for conn = 1 to 5 do
    for dir = 0 to 1 do
      for chunk = 1 to 20 do
        let a = Net_faults.decide cfg ~conn ~dir ~chunk in
        let b = Net_faults.decide cfg ~conn ~dir ~chunk in
        Alcotest.(check bool) "schedule is pure" true (a = b)
      done
    done
  done;
  (* different seeds give different schedules somewhere *)
  let differs =
    List.exists
      (fun chunk ->
        Net_faults.decide cfg ~conn:1 ~dir:0 ~chunk
        <> Net_faults.decide { cfg with Net_faults.seed = 12 } ~conn:1 ~dir:0
             ~chunk)
      (List.init 50 (fun i -> i + 1))
  in
  Alcotest.(check bool) "seed matters" true differs

(* ------------------------------------------------------------------ *)
(* Process-level: SIGTERM drain and kill -9 recovery *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let spawn_daemon args =
  let log = Filename.temp_file "maxrs_serverd" ".log" in
  let log_fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process serverd
      (Array.of_list (serverd :: args))
      Unix.stdin log_fd log_fd
  in
  Unix.close log_fd;
  (* wait for the "listening on" line: the socket is live *)
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    let up =
      try contains ~needle:"listening on" (read_file log)
      with Sys_error _ -> false
    in
    if up then ()
    else if Unix.gettimeofday () > deadline then (
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      Alcotest.fail ("daemon did not come up:\n" ^ read_file log))
    else (
      Thread.delay 0.05;
      wait ())
  in
  wait ();
  (pid, log)

let wait_exit pid =
  let deadline = Unix.gettimeofday () +. 15. in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then (
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          Alcotest.fail "daemon did not exit in time")
        else (
          Thread.delay 0.05;
          go ())
    | _, status -> status
  in
  go ()

(* The op script both process tests drive: inserts with occasional
   deletes, fully deterministic so any prefix can be replayed
   locally. *)
let script_op rng i =
  if i > 4 && i mod 5 = 0 then `Del (i - 3)
  else
    `Ins
      ( Rng.uniform rng (-3.) 3.,
        Rng.uniform rng (-3.) 3.,
        0.5 +. Rng.float rng 1. )

let script n =
  let rng = Rng.create 123 in
  List.init n (fun i -> script_op rng i)

(* Replay the first [m] script ops into a fresh local session and
   fingerprint it: encoded state + best. Handles are dense in insert
   order on both sides, so op [`Del k] means "delete the k-th
   insert". *)
let local_fingerprint ~m ops =
  let wal = fresh_path ".wal" in
  let s =
    match Session.open_ ~wal ~snapshot_every:0 ~fsync:Wal.Never () with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  List.iteri
    (fun i op ->
      if i < m then
        match op with
        | `Ins (x, y, w) -> ignore (Session.insert s ~weight:w [| x; y |])
        | `Del k ->
            let insert_index =
              (* the k-th op is an insert by construction *)
              List.length
                (List.filteri
                   (fun j o -> j < k && match o with `Ins _ -> true | _ -> false)
                   ops)
            in
            Session.delete s (Dynamic.handle_of_id insert_index))
    ops;
  let fp =
    (Codec.encode_state (Session.state s), Session.best s)
  in
  Session.close s;
  cleanup_wal wal;
  fp

let drive_ops client ops ~until_error =
  (* returns the number of acked ops (prefix length) *)
  let acked = ref 0 in
  (try
     List.iteri
       (fun i op ->
         let insert_index_of k =
           List.length
             (List.filteri
                (fun j o -> j < k && match o with `Ins _ -> true | _ -> false)
                ops)
         in
         ignore i;
         let r =
           match op with
           | `Ins (x, y, w) -> (
               match Client.request client (Proto.Insert { x; y; weight = w }) with
               | Ok (Proto.Inserted _) -> true
               | _ -> false)
           | `Del k -> (
               match
                 Client.request client
                   (Proto.Delete { handle = insert_index_of k })
               with
               | Ok (Proto.Deleted _) -> true
               | _ -> false)
         in
         if r then incr acked
         else if until_error then raise Exit
         else Alcotest.fail "op rejected")
       ops
   with Exit -> ());
  !acked

let test_sigterm_drain_process () =
  let wal = fresh_path ".wal" in
  let sock = fresh_path ".sock" in
  let pid, log =
    spawn_daemon
      [ "serve"; "--addr"; "unix:" ^ sock; "--wal"; wal; "--fsync"; "always" ]
  in
  let addr = Netio.Unix_sock sock in
  let ops = script 400 in
  let acked = ref 0 in
  let killer =
    Thread.create
      (fun () ->
        (* let traffic flow, then SIGTERM mid-stream *)
        Thread.delay 0.25;
        Unix.kill pid Sys.sigterm)
      ()
  in
  let c = Client.create addr in
  acked := drive_ops c ops ~until_error:true;
  Client.close c;
  Thread.join killer;
  let status = wait_exit pid in
  Alcotest.(check bool)
    (Printf.sprintf "clean drain exit (acked=%d): %s" !acked
       (match status with
       | Unix.WEXITED n -> Printf.sprintf "exit %d" n
       | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
       | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n))
    true
    (status = Unix.WEXITED 0);
  Alcotest.(check bool)
    "drain reported" true
    (contains ~needle:"drained" (read_file log));
  (* every acked op is on disk: the recovered prefix covers them *)
  let s =
    match Session.open_ ~wal () with
    | Ok s -> s
    | Error e -> Alcotest.fail ("recovery after drain: " ^ e)
  in
  let seq = Session.seq s in
  Session.close s;
  Alcotest.(check bool)
    (Printf.sprintf "WAL flushed (seq=%d >= acked=%d)" seq !acked)
    true (seq >= !acked);
  (* and that prefix is bit-identical to a local replay *)
  let exp_state, exp_best = local_fingerprint ~m:seq ops in
  let s =
    match Session.open_ ~wal () with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let got_state =
    Codec.encode_state (Session.state s)
  in
  let got_best = Session.best s in
  Session.close s;
  Alcotest.(check bool) "state bit-identical" true (String.equal exp_state got_state);
  Alcotest.(check bool) "best identical" true (exp_best = got_best);
  cleanup_wal wal;
  Sys.remove log

(* Two connections send 12,000-pair intervals at once to a two-worker
   daemon, whose worker threads are systhreads of one domain and share
   its scratch: every reply must be the local call's, and the daemon
   must still answer afterwards and drain cleanly. *)
let test_concurrent_intervals_process () =
  let sock = fresh_path ".sock" in
  let pid, log =
    spawn_daemon [ "serve"; "--addr"; "unix:" ^ sock; "--workers"; "2" ]
  in
  let addr = Netio.Unix_sock sock in
  let job seed =
    let len = 10. +. float_of_int seed in
    match interval_request ~seed 12_000 with
    | Proto.Solve_interval { points; _ } -> (
        match Interval1d.max_sum_checked ~len points with
        | Ok p ->
            ( Proto.Solve_interval { len; points },
              [ bits p.Interval1d.lo; bits (p.lo +. len); bits p.value ] )
        | Error _ -> Alcotest.fail "local solve rejected")
    | _ -> assert false
  in
  (* Each connection keeps three requests in flight, so both workers
     always have a solve to run. *)
  let bad = Atomic.make 0 and replies = Atomic.make 0 in
  let client (req, want) =
    match Netio.connect addr with
    | Error _ -> Atomic.incr bad
    | Ok fd ->
        let payload = Proto.encode_request ~id:1 req in
        let send () = Result.is_ok (Netio.send fd payload) in
        let recv () =
          match Netio.recv ~idle:10. ~frame:10. ~max_frame:(1 lsl 23) fd with
          | Ok p -> (
              match Proto.decode_reply p with
              | Ok (_, Proto.Solved o) ->
                  let a = Outcome.value o in
                  Atomic.incr replies;
                  [ bits a.Proto.x; bits a.y; bits a.value ] = want
              | Ok _ | Error _ -> false)
          | Error _ -> false
        in
        let t0 = Unix.gettimeofday () in
        let inflight = ref 0 and ok = ref true in
        for _ = 1 to 3 do
          if !ok && send () then incr inflight else ok := false
        done;
        while !ok && !inflight > 0 do
          if recv () then decr inflight else ok := false;
          if !ok && Unix.gettimeofday () -. t0 < 1.0 then
            if send () then incr inflight else ok := false
        done;
        if not !ok then Atomic.incr bad;
        Netio.close_noerr fd
  in
  let threads = List.map (Thread.create client) [ job 1; job 2 ] in
  List.iter Thread.join threads;
  let c = Client.create addr in
  let alive = Client.ping c in
  Client.close c;
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let status = wait_exit pid in
  Sys.remove log;
  Alcotest.(check int) "connections that saw a wrong or missing reply" 0
    (Atomic.get bad);
  Alcotest.(check bool) "replies served" true (Atomic.get replies > 20);
  ok_or_fail "ping after the storm" alive;
  Alcotest.(check bool) "drains, exit 0" true (status = Unix.WEXITED 0)

let test_kill9_recovery_process () =
  let wal = fresh_path ".wal" in
  let sock = fresh_path ".sock" in
  let pid, log =
    spawn_daemon
      [ "serve"; "--addr"; "unix:" ^ sock; "--wal"; wal; "--fsync"; "always" ]
  in
  let addr = Netio.Unix_sock sock in
  let ops = script 400 in
  let killer =
    Thread.create
      (fun () ->
        Thread.delay 0.2;
        Unix.kill pid Sys.sigkill)
      ()
  in
  let c = Client.create addr in
  let acked = drive_ops c ops ~until_error:true in
  Client.close c;
  Thread.join killer;
  let status = wait_exit pid in
  Alcotest.(check bool)
    "killed hard" true
    (status = Unix.WSIGNALED Sys.sigkill);
  (* recovery: the WAL holds some prefix covering every acked op
     (fsync=always: acked implies durable), and the recovered session
     is bit-identical to a local replay of that prefix *)
  let s =
    match Session.open_ ~wal () with
    | Ok s -> s
    | Error e -> Alcotest.fail ("recovery after kill -9: " ^ e)
  in
  let seq = Session.seq s in
  let got_state = Codec.encode_state (Session.state s) in
  let got_best = Session.best s in
  Session.close s;
  Alcotest.(check bool)
    (Printf.sprintf "acked ops durable (seq=%d >= acked=%d)" seq acked)
    true (seq >= acked);
  Alcotest.(check bool)
    "prefix property" true
    (seq <= List.length ops);
  let exp_state, exp_best = local_fingerprint ~m:seq ops in
  Alcotest.(check bool)
    "recovered state bit-identical to local replay" true
    (String.equal exp_state got_state);
  Alcotest.(check bool) "recovered best identical" true (exp_best = got_best);
  (* a restarted daemon serves the recovered session *)
  let pid2, log2 =
    spawn_daemon [ "serve"; "--addr"; "unix:" ^ sock; "--wal"; wal ]
  in
  let c = Client.create addr in
  let best = ok_or_fail "query after restart" (Client.query c) in
  Client.close c;
  Alcotest.(check bool)
    "restarted daemon serves recovered best" true
    ((match (best, exp_best) with
     | Some (x, y, v), Some (p, w) ->
         bits x = bits p.(0) && bits y = bits p.(1) && bits v = bits w
     | None, None -> true
     | _ -> false));
  Unix.kill pid2 Sys.sigterm;
  let status2 = wait_exit pid2 in
  Alcotest.(check bool) "restarted daemon drains" true (status2 = Unix.WEXITED 0);
  cleanup_wal wal;
  Sys.remove log;
  Sys.remove log2

(* ------------------------------------------------------------------ *)
(* Sharded-session daemon under chaos: mixed mutation/query load
   through the Net_faults proxy, then kill -9 mid-traffic. The test
   keeps a local SOLO session mirroring exactly the ops the daemon
   acked, so it can (a) bit-check every successful proxied query
   against the solo structure mid-storm, and (b) after the kill,
   verify the sharded parallel recovery is bit-identical to a solo
   replay of the surviving op prefix.

   A proxied mutation that errors is AMBIGUOUS (the request may have
   been applied with its ack eaten by a fault). The resolution
   protocol reconnects DIRECTLY to the daemon: a delete resend is
   naturally idempotent-detectable (Deleted = hadn't landed, Invalid =
   had), and an insert resend disambiguates via the returned handle
   (handles are dense in insert order), deleting the duplicate it just
   created when the original had landed. Every resolved op — including
   such duplicate insert+delete pairs — goes into the mirror, so the
   mirror always matches the daemon's journaled op sequence. Ops still
   unresolved when the daemon dies form a [pending] suffix; the
   recovered seq must land in [len op_log, len op_log + len pending]
   and the recovered state must equal a replay of that exact prefix. *)

type sop = SIns of float * float * float | SDel of int

let apply_sop sess = function
  | SIns (x, y, w) ->
      ignore (Session.insert sess ~weight:w [| x; y |] : Dynamic.handle)
  | SDel h -> Session.delete sess (Dynamic.handle_of_id h)

(* Fingerprint of a fresh solo replay of the first [m] ops. *)
let solo_replay_fingerprint ops ~m =
  let wal = fresh_path ".wal" in
  let s =
    match Session.open_ ~wal ~snapshot_every:0 ~fsync:Wal.Never () with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  List.iteri (fun i op -> if i < m then apply_sop s op) ops;
  let fp = (Codec.encode_state (Session.state s), Session.best s) in
  Session.close s;
  cleanup_wal wal;
  fp

let test_sharded_chaos_kill9_process () =
  let wal = fresh_path ".wal" in
  let sock = fresh_path ".sock" in
  let pid, log =
    spawn_daemon
      [
        "serve"; "--addr"; "unix:" ^ sock; "--wal"; wal; "--shards"; "3";
        "--fsync"; "always";
      ]
  in
  Alcotest.(check bool)
    "daemon reports sharded session" true
    (contains ~needle:"shards=3" (read_file log));
  let daddr = Netio.Unix_sock sock in
  let paddr = fresh_sock () in
  let fcfg =
    match Net_faults.of_env () with
    | Some c -> { c with Net_faults.rate = Float.min c.Net_faults.rate 0.25 }
    | None -> { Net_faults.seed = 21; rate = 0.1 }
  in
  let proxy =
    match Net_faults.start ~listen:paddr ~upstream:daddr fcfg with
    | Ok p -> p
    | Error m -> Alcotest.fail ("proxy: " ^ m)
  in
  let mwal = fresh_path ".wal" in
  let mirror =
    match Session.open_ ~wal:mwal ~snapshot_every:0 ~fsync:Wal.Never () with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let op_log = ref [] (* newest first *) and pending = ref [] in
  let nins = ref 0 and live = ref [] in
  let commit op =
    (match op with
    | SIns _ ->
        live := !nins :: !live;
        incr nins
    | SDel h -> live := List.filter (fun x -> x <> h) !live);
    op_log := op :: !op_log;
    apply_sop mirror op
  in
  let daemon_dead = ref false in
  let direct_request req =
    match
      let c = Client.create ~recv_timeout:3. ~send_timeout:3. daddr in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
          Client.request c req)
    with
    | r -> r
    | exception _ -> Error (Client.Net "connect failed")
  in
  (* Resolve the pending ambiguous ops over direct connections. *)
  let rec resolve () =
    match !pending with
    | [] -> ()
    | SDel h :: rest -> (
        match direct_request (Proto.Delete { handle = h }) with
        | Ok (Proto.Deleted _) | Ok (Proto.Error_reply { code = Proto.Invalid; _ })
          ->
            (* Deleted: the proxied delete had NOT landed and this send
               applied it; Invalid ("not live"): it HAD. One delete is
               journaled either way. *)
            commit (SDel h);
            pending := rest;
            resolve ()
        | Ok _ | Error _ ->
            (* a second delete of the same handle cannot land twice, so
               the pending suffix stays a single op *)
            daemon_dead := true)
    | (SIns (x, y, w) as op) :: rest -> (
        match direct_request (Proto.Insert { x; y; weight = w }) with
        | Ok (Proto.Inserted { handle; _ }) ->
            if handle = !nins then begin
              (* the proxied insert had not landed; the resend is it *)
              commit op;
              pending := rest;
              resolve ()
            end
            else begin
              (* it had landed (the resend's handle skipped one slot):
                 the daemon now holds a duplicate — journal the
                 original, the duplicate, and delete the duplicate *)
              commit op;
              commit op;
              pending := SDel handle :: rest;
              resolve ()
            end
        | Ok _ | Error _ ->
            (* the resend itself is now ambiguous too: the daemon may
               hold zero, one or two copies — both are prefixes of
               [op; op] *)
            pending := op :: op :: rest;
            daemon_dead := true)
  in
  let cl = ref None in
  let proxied_client () =
    match !cl with
    | Some c -> Some c
    | None -> (
        match Client.create ~recv_timeout:3. ~send_timeout:3. paddr with
        | c ->
            cl := Some c;
            Some c
        | exception _ -> None)
  in
  let drop_client () =
    (match !cl with Some c -> ( try Client.close c with _ -> ()) | None -> ());
    cl := None
  in
  let queries_checked = ref 0 in
  let rng = Rng.create 2024 in
  let killer =
    Thread.create
      (fun () ->
        Thread.delay 0.3;
        try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
      ()
  in
  let i = ref 0 in
  while (not !daemon_dead) && !i < 4000 do
    incr i;
    match proxied_client () with
    | None -> Thread.delay 0.01
    | Some c ->
        let r = Rng.float rng 1. in
        if r < 0.2 && List.length !live > 2 then begin
          let k = Rng.int rng (List.length !live) in
          let h = List.nth !live k in
          match Client.request c (Proto.Delete { handle = h }) with
          | Ok (Proto.Deleted _) -> commit (SDel h)
          | Ok _ | Error _ ->
              drop_client ();
              pending := [ SDel h ];
              resolve ()
        end
        else if r < 0.35 then begin
          match Client.request c Proto.Query with
          | Ok (Proto.Best got) ->
              let ok =
                match (got, Session.best mirror) with
                | Some (x, y, v), Some (p, w) ->
                    bits x = bits p.(0) && bits y = bits p.(1)
                    && bits v = bits w
                | None, None -> true
                | _ -> false
              in
              if not ok then
                Alcotest.failf "proxied query %d diverged from solo mirror" !i;
              incr queries_checked
          | Ok _ | Error _ -> drop_client () (* queries mutate nothing *)
        end
        else begin
          let op =
            SIns
              ( Rng.uniform rng (-3.) 3.,
                Rng.uniform rng (-3.) 3.,
                0.5 +. Rng.float rng 1. )
          in
          match
            (op, Client.request c
                   (match op with
                   | SIns (x, y, w) -> Proto.Insert { x; y; weight = w }
                   | SDel _ -> assert false))
          with
          | _, Ok (Proto.Inserted _) -> commit op
          | _, (Ok _ | Error _) ->
              drop_client ();
              pending := [ op ];
              resolve ()
        end
  done;
  drop_client ();
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  Thread.join killer;
  let status = wait_exit pid in
  Alcotest.(check bool)
    "killed hard" true
    (status = Unix.WSIGNALED Sys.sigkill);
  Thread.delay 0.1;
  Alcotest.(check bool) "chaos injected faults" true
    (Net_faults.injected_count proxy >= 1);
  Net_faults.shutdown proxy;
  Alcotest.(check bool) "at least one proxied query checked" true
    (!queries_checked >= 1);
  let mirror_fp = (Codec.encode_state (Session.state mirror), Session.best mirror) in
  ignore mirror_fp;
  Session.close mirror;
  cleanup_wal mwal;
  (* recovery: sharded parallel recovery of the damaged multi-WAL
     layout must land on a seq covering every acked op and be
     bit-identical to a solo replay of that prefix *)
  let ops_all = List.rev !op_log @ !pending in
  let acked = List.length !op_log in
  let s =
    match Session.open_ ~wal () with
    | Ok s -> s
    | Error e -> Alcotest.fail ("sharded recovery after kill -9: " ^ e)
  in
  Alcotest.(check int) "recovered sharded" 3 (Session.shards s);
  let seq = Session.seq s in
  let got_state = Codec.encode_state (Session.state s) in
  let got_best = Session.best s in
  Session.close s;
  Alcotest.(check bool)
    (Printf.sprintf "acked ops durable (seq=%d in [%d, %d])" seq acked
       (List.length ops_all))
    true
    (seq >= acked && seq <= List.length ops_all);
  let exp_state, exp_best = solo_replay_fingerprint ops_all ~m:seq in
  Alcotest.(check bool)
    "sharded recovery bit-identical to solo prefix replay" true
    (String.equal exp_state got_state);
  Alcotest.(check bool) "recovered best identical" true (exp_best = got_best);
  (* a restarted daemon serves the recovered sharded session *)
  let pid2, log2 =
    spawn_daemon [ "serve"; "--addr"; "unix:" ^ sock; "--wal"; wal ]
  in
  Alcotest.(check bool)
    "restart reopens sharded" true
    (contains ~needle:"shards=3" (read_file log2));
  let c = Client.create daddr in
  let best = ok_or_fail "query after restart" (Client.query c) in
  Client.close c;
  Alcotest.(check bool)
    "restarted daemon serves recovered best" true
    (match (best, exp_best) with
    | Some (x, y, v), Some (p, w) ->
        bits x = bits p.(0) && bits y = bits p.(1) && bits v = bits w
    | None, None -> true
    | _ -> false);
  Unix.kill pid2 Sys.sigterm;
  let status2 = wait_exit pid2 in
  Alcotest.(check bool) "restarted daemon drains" true (status2 = Unix.WEXITED 0);
  cleanup_wal wal;
  Sys.remove log;
  Sys.remove log2

(* ------------------------------------------------------------------ *)

let () =
  (* the hardening tests write into sockets the server has already
     closed; that must surface as EPIPE, not kill the runner *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "server"
    [
      ( "proto",
        Alcotest.test_case "300 random round trips" `Quick test_proto_roundtrip
        :: Alcotest.test_case "encoder bytes = Buffer reference" `Quick
             test_encoder_matches_reference
        :: Alcotest.test_case "truncated point runs are errors" `Quick
             test_truncated_points_are_errors
        :: Alcotest.test_case "12,000-pair interval codec allocation" `Quick
             test_codec_allocation
        :: List.map QCheck_alcotest.to_alcotest
             [ qcheck_proto_garbage_total; qcheck_proto_mutation_total ] );
      ( "serve",
        [
          Alcotest.test_case "solve matches local bits" `Quick
            test_basic_solve_bit_identity;
          Alcotest.test_case "invalid input is a structured error" `Quick
            test_invalid_input;
          Alcotest.test_case "tiny deadline degrades, marked on the wire"
            `Quick test_deadline_degrades;
          Alcotest.test_case "durable session ops" `Quick test_session_ops;
          Alcotest.test_case "range-sum reads from the RMSQ tier" `Quick
            test_range_sum;
          Alcotest.test_case "range-sum fallback with index off" `Quick
            test_range_sum_no_index;
          Alcotest.test_case "no session means Invalid" `Quick
            test_no_session_is_invalid;
        ] );
      ( "admission",
        [
          Alcotest.test_case "bounded queue sheds load" `Quick
            test_admission_control;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "malformed payload keeps the connection" `Quick
            test_malformed_payload_keeps_connection;
          Alcotest.test_case "CRC flip is rejected" `Quick
            test_crc_flip_rejected;
          Alcotest.test_case "oversized length is rejected unallocated" `Quick
            test_oversized_rejected;
          Alcotest.test_case "torn frame and mid-request disconnect" `Quick
            test_torn_frame_and_disconnect;
          Alcotest.test_case "slow loris is cut" `Quick test_slow_loris_cut;
        ] );
      ( "drain",
        [
          Alcotest.test_case "drain rejects new work" `Quick
            test_drain_rejects_new_work;
        ] );
      ( "conn",
        [
          Alcotest.test_case "frames in one write answered in order" `Quick
            test_frames_in_one_write;
          Alcotest.test_case "trickled frame is answered" `Quick
            test_trickled_frame;
          Alcotest.test_case "frame larger than the buffer" `Quick
            test_frame_larger_than_buffer;
          Alcotest.test_case "EOF inside a buffered frame is Torn" `Quick
            test_eof_in_buffered_frame;
          Alcotest.test_case "reads pass a long solve" `Quick
            test_reads_pass_a_long_solve;
          Alcotest.test_case "pipelined write then read" `Quick
            test_pipelined_write_then_read;
          Alcotest.test_case "indexed read takes no session lock" `Quick
            test_indexed_read_takes_no_session_lock;
          Alcotest.test_case "syscalls per served read" `Quick
            test_syscalls_per_read;
        ] );
      ( "client",
        [
          Alcotest.test_case "honors Retry-After" `Quick
            test_client_honors_retry_after;
          Alcotest.test_case "never replays mutations" `Quick
            test_client_never_replays_mutations;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "fault schedule is deterministic" `Quick
            test_fault_schedule_deterministic;
          Alcotest.test_case "proxy storm: unfaulted replies bit-identical"
            `Quick test_fault_proxy_chaos;
        ] );
      ( "process",
        [
          Alcotest.test_case "SIGTERM drains, exits 0, WAL flushed" `Quick
            test_sigterm_drain_process;
          Alcotest.test_case "concurrent intervals on two workers" `Quick
            test_concurrent_intervals_process;
          Alcotest.test_case "kill -9 recovers bit-identically" `Quick
            test_kill9_recovery_process;
          Alcotest.test_case "sharded session: chaos + kill -9" `Quick
            test_sharded_chaos_kill9_process;
        ] );
    ]
