(* Tests for the durability layer: CRC and codec round trips, WAL
   scan/append behaviour, snapshot atomicity, and the two central
   recovery guarantees —

   - exhaustive truncation matrix: a WAL cut at EVERY byte boundary
     recovers, without raising, to the longest valid op prefix, and
     the recovered structure is bit-identical (same encoded state,
     same best answer) to a fresh replay of that prefix;

   - randomized crash storm: >= 200 random truncations and bit flips
     (MAXRS_CRASH_TRIALS overrides the count), same bit-identical
     requirement, with and without snapshots in play. *)

module Point = Maxrs_geom.Point
module Rng = Maxrs_geom.Rng
module Config = Maxrs.Config
module Dynamic = Maxrs.Dynamic
module Crc32 = Maxrs_durable.Crc32
module Codec = Maxrs_durable.Codec
module Wal = Maxrs_durable.Wal
module Shard_wal = Maxrs_durable.Shard_wal
module Snapshot = Maxrs_durable.Snapshot
module Session = Maxrs_durable.Session
module Obs = Maxrs_obs.Obs
module SS = Maxrs.Sample_space.State

let skipped_corrupt = Obs.counter "snapshot.skipped_corrupt"

(* Small structures keep state captures cheap: few shifted grids, a
   coarse epsilon. *)
let test_cfg epsilon seed =
  Config.make ~epsilon ~max_grid_shifts:(Some 3) ~seed ()

let fresh_wal_path () =
  let p = Filename.temp_file "maxrs_durable" ".wal" in
  Sys.remove p;
  p

(* Remove a WAL and all its sidecar files (snapshots, tmp). *)
let cleanup wal =
  let dir = Filename.dirname wal and base = Filename.basename wal in
  Array.iter
    (fun name ->
      if
        String.length name >= String.length base
        && String.sub name 0 (String.length base) = base
      then try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
    (Sys.readdir dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

let copy_snapshots ~from_wal ~to_wal =
  List.iter
    (fun (seq, _, file) ->
      write_file (Snapshot.path ~wal:to_wal ~seq) (read_file file))
    (Snapshot.load_all ~wal:from_wal)

(* ------------------------------------------------------------------ *)
(* Deterministic op scripts: handles are dense and assigned in insert
   order, so the script can predict them without running anything. *)

type op = Ins of float array * float | Del of int

let gen_ops ~n ~seed ~extent =
  let rng = Rng.create seed in
  let live = ref [] and nlive = ref 0 and inserts = ref 0 in
  List.init n (fun _ ->
      if !nlive > 1 && Rng.bernoulli rng 0.3 then begin
        let k = Rng.int rng !nlive in
        let h = List.nth !live k in
        live := List.filteri (fun i _ -> i <> k) !live;
        decr nlive;
        Del h
      end
      else begin
        let p = [| Rng.float rng extent; Rng.float rng extent |] in
        let w = 1. +. Rng.float rng 2. in
        let h = !inserts in
        incr inserts;
        live := h :: !live;
        incr nlive;
        Ins (p, w)
      end)

let apply_dyn dyn = function
  | Ins (p, w) -> ignore (Dynamic.insert dyn ~weight:w p : Dynamic.handle)
  | Del h -> Dynamic.delete dyn (Dynamic.handle_of_id h)

let apply_session s = function
  | Ins (p, w) -> ignore (Session.insert s ~weight:w p : Dynamic.handle)
  | Del h -> Session.delete s (Dynamic.handle_of_id h)

let take n l = List.filteri (fun i _ -> i < n) l

(* Fingerprint of the structure obtained by replaying the first
   [prefix] script ops from scratch: canonical encoded state plus the
   best answer. Equality of the encoding is equality of every cell,
   sample, rng stream and counter — the bit-identical oracle. *)
let baseline ~cfg ~radius ops ~prefix =
  let dyn = Dynamic.create ~cfg ~radius ~dim:2 () in
  List.iter (apply_dyn dyn) (take prefix ops);
  (Codec.encode_state (Dynamic.state dyn), Dynamic.best dyn)

let session_fingerprint s =
  (Codec.encode_state (Session.state s), Session.best s)

let check_fp what (exp_state, exp_best) (got_state, got_best) =
  Alcotest.(check bool) (what ^ ": state bit-identical") true
    (String.equal exp_state got_state);
  Alcotest.(check bool) (what ^ ": best identical") true (exp_best = got_best)

(* ------------------------------------------------------------------ *)
(* CRC-32 *)

let test_crc_vectors () =
  Alcotest.(check int) "empty" 0 (Crc32.of_string "");
  Alcotest.(check int) "check value" 0xCBF43926 (Crc32.of_string "123456789");
  Alcotest.(check int) "fox" 0x414FA339
    (Crc32.of_string "The quick brown fox jumps over the lazy dog");
  Alcotest.(check int) "substring"
    (Crc32.of_string "123456789")
    (Crc32.of_substring "xx123456789yy" ~pos:2 ~len:9)

let test_crc_detects_single_bit_flips () =
  let rng = Rng.create 5 in
  let s = String.init 64 (fun _ -> Char.chr (Rng.int rng 256)) in
  let crc = Crc32.of_string s in
  for _ = 1 to 200 do
    let i = Rng.int rng (String.length s) in
    let bit = Rng.int rng 8 in
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
    if Crc32.of_bytes b = crc then Alcotest.fail "bit flip not detected"
  done

(* Bit-at-a-time CRC-32 with no table: the reference the sliced
   implementation must agree with. *)
let crc_reference s ~pos ~len =
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    crc := !crc lxor Char.code s.[i];
    for _ = 0 to 7 do
      crc :=
        if !crc land 1 = 1 then 0xEDB88320 lxor (!crc lsr 1) else !crc lsr 1
    done
  done;
  !crc lxor 0xFFFFFFFF

let random_string rng n = String.init n (fun _ -> Char.chr (Rng.int rng 256))

let test_crc_every_alignment () =
  let s = random_string (Rng.create 8) 80 in
  for pos = 0 to 7 do
    for len = 0 to 64 do
      Alcotest.(check int)
        (Printf.sprintf "pos %d len %d" pos len)
        (crc_reference s ~pos ~len)
        (Crc32.of_substring s ~pos ~len)
    done
  done;
  let big = random_string (Rng.create 9) ((1 lsl 20) + 13) in
  Alcotest.(check int) "1 MiB + 13"
    (crc_reference big ~pos:0 ~len:(String.length big))
    (Crc32.of_string big);
  Alcotest.(check int) "1 MiB at offset 5"
    (crc_reference big ~pos:5 ~len:(1 lsl 20))
    (Crc32.of_substring big ~pos:5 ~len:(1 lsl 20))

(* The resumable entry points: a CRC continued across any split equals
   the CRC of the whole, and a float column checksums as its
   little-endian bit patterns would. *)
let test_crc_resumable () =
  let s = random_string (Rng.create 10) 100 in
  for cut = 0 to 100 do
    Alcotest.(check int)
      (Printf.sprintf "split at %d" cut)
      (Crc32.of_string s)
      (Crc32.update (Crc32.of_substring s ~pos:0 ~len:cut) s ~pos:cut
         ~len:(100 - cut))
  done;
  let rng = Rng.create 11 in
  let a = Float.Array.init 37 (fun _ -> Rng.uniform rng (-1e3) 1e3) in
  Float.Array.set a 3 Float.nan;
  Float.Array.set a 4 (-0.);
  let le = Bytes.create (8 * 37) in
  Float.Array.iteri
    (fun i x -> Bytes.set_int64_le le (8 * i) (Int64.bits_of_float x))
    a;
  Alcotest.(check int) "floats = their bytes"
    (Crc32.update 7 (Bytes.to_string le) ~pos:0 ~len:(8 * 37))
    (Crc32.update_floats 7 a)

let qcheck_crc_matches_reference =
  QCheck.Test.make ~count:500
    ~name:"crc32: sliced = bit-at-a-time on random substrings"
    QCheck.(triple (int_range 0 7) (int_range 0 64) int)
    (fun (pos, len, seed) ->
      let s = random_string (Rng.create seed) (pos + len + (seed land 7)) in
      Crc32.of_substring s ~pos ~len = crc_reference s ~pos ~len)

(* ------------------------------------------------------------------ *)
(* Codec primitives and record round trips (qcheck) *)

let qcheck_f64_roundtrip =
  QCheck.Test.make ~count:300 ~name:"codec: f64 round trip is bit-exact"
    QCheck.float (fun f ->
      let b = Buffer.create 8 in
      Codec.f64 b f;
      let g = Codec.r_f64 (Codec.reader (Buffer.contents b)) in
      Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g))

let qcheck_int_roundtrip =
  QCheck.Test.make ~count:300 ~name:"codec: int round trip" QCheck.int
    (fun i ->
      let b = Buffer.create 8 in
      Codec.int_ b i;
      Codec.r_int (Codec.reader (Buffer.contents b)) = i)

(* The bulk Fvec encoder must round trip bit-exactly AND emit the very
   bytes of the per-element [float_array] encoder — the two formats are
   documented as interchangeable on the wire. *)
let qcheck_fvec_roundtrip =
  QCheck.Test.make ~count:300
    ~name:"codec: fvec round trip is bit-exact and matches float_array"
    QCheck.(array_of_size Gen.(int_range 0 64) float)
    (fun fa ->
      let n = Array.length fa in
      let v = Maxrs_geom.Fvec.init n (fun i -> fa.(i)) in
      let b = Buffer.create 64 in
      Codec.fvec b v;
      let bytes = Buffer.contents b in
      let b' = Buffer.create 64 in
      Codec.float_array b' fa;
      let v' = Codec.r_fvec (Codec.reader bytes) "fvec" in
      let fa' = Codec.r_float_array (Codec.reader bytes) "fvec as array" in
      String.equal bytes (Buffer.contents b')
      && Maxrs_geom.Fvec.length v' = n
      && Array.length fa' = n
      && Array.for_all Fun.id
           (Array.init n (fun i ->
                Int64.bits_of_float fa.(i)
                = Int64.bits_of_float (Maxrs_geom.Fvec.get v' i)
                && Int64.bits_of_float fa.(i) = Int64.bits_of_float fa'.(i))))

let record_gen =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun h xs w -> Wal.Insert { handle = h; point = Array.of_list xs; weight = w })
          (0 -- 10000)
          (list_size (1 -- 4) (float_range (-100.) 100.))
          (float_range 0. 10.);
        map (fun h -> Wal.Delete h) (0 -- 10000);
        map2 (fun e n -> Wal.Epoch { epochs = e; n0 = n }) (0 -- 64) (4 -- 4096);
      ])

let arbitrary_records =
  QCheck.make ~print:(fun l -> Printf.sprintf "<%d records>" (List.length l))
    QCheck.Gen.(list_size (0 -- 40) record_gen)

(* Round trip through the real file path: write a log, scan it back. *)
let qcheck_wal_roundtrip =
  QCheck.Test.make ~count:60 ~name:"wal: append/scan round trip"
    arbitrary_records (fun records ->
      let wal = fresh_wal_path () in
      Fun.protect
        ~finally:(fun () -> cleanup wal)
        (fun () ->
          let params =
            { Wal.dim = 2; radius = 1.5; cfg = test_cfg 0.4 3; base_seq = 7 }
          in
          let w = Wal.create wal params ~fsync:Wal.Never in
          List.iter (Wal.append w) records;
          Wal.close w;
          match Wal.scan wal with
          | Wal.Scan s ->
              s.Wal.params = params && s.Wal.records = records
              && s.Wal.corruption = None
              && s.Wal.valid_bytes = (Unix.stat wal).Unix.st_size
          | _ -> false))

(* Snapshot + state codec round trip, and bit-identical continuation:
   restore a decoded snapshot and drive both structures forward with
   identical ops — every future answer must match bit for bit. *)
(* [gen_ops] in [dim] dimensions. *)
let gen_ops_dim ~dim ~n ~seed ~extent =
  let rng = Rng.create seed in
  let nlive = ref 0 in
  List.init n (fun _ ->
      if !nlive > 1 && Rng.bernoulli rng 0.3 then begin
        decr nlive;
        Del (Rng.int rng (!nlive + 1))
      end
      else begin
        incr nlive;
        let p = Array.init dim (fun _ -> Rng.float rng extent) in
        Ins (p, 1. +. Rng.float rng 2.)
      end)

(* The decoder redraws every position from its cell's stamp, so the
   decoded state equals the captured one field for field, positions
   included, in every dimension the sampling step treats apart
   (d = 1, 2, and the general case). *)
let qcheck_state_roundtrip =
  QCheck.Test.make ~count:12 ~name:"codec: state round trip continues bit-identically"
    QCheck.(int_range 0 1000)
    (fun seed ->
      let dim = 1 + (seed mod 3) in
      let cfg = test_cfg 0.45 (seed + 1) in
      let ops = gen_ops_dim ~dim ~n:80 ~seed ~extent:4. in
      let more = gen_ops_dim ~dim ~n:30 ~seed:(seed + 999) ~extent:4. in
      let dyn = Dynamic.create ~cfg ~radius:1. ~dim () in
      let live = ref [] and next = ref 0 in
      (* Deletes name a live handle by its rank in [live]. *)
      let apply dyns = function
        | Ins (p, w) ->
            List.iter
              (fun d -> ignore (Dynamic.insert d ~weight:w p : Dynamic.handle))
              dyns;
            live := !next :: !live;
            incr next
        | Del k ->
            let h = List.nth !live (k mod List.length !live) in
            live := List.filter (( <> ) h) !live;
            List.iter (fun d -> Dynamic.delete d (Dynamic.handle_of_id h)) dyns
      in
      List.iter (apply [ dyn ]) ops;
      let st = Dynamic.state dyn in
      let decoded = Codec.decode_state (Codec.encode_state st) in
      (* Compared before the restore, which adopts the decoded columns
         and writes into them as [dyn'] moves on. *)
      decoded = st
      &&
      let dyn' = Dynamic.restore decoded in
      List.iter (apply [ dyn; dyn' ]) more;
      String.equal
           (Codec.encode_state (Dynamic.state dyn))
           (Codec.encode_state (Dynamic.state dyn'))
      && Dynamic.best dyn = Dynamic.best dyn')

let test_codec_rejects_garbage () =
  (match Codec.decode_state "garbage bytes" with
  | exception Codec.Malformed _ -> ()
  | _ -> Alcotest.fail "decode of garbage must raise Malformed");
  let r = Codec.reader "\x07" in
  match Codec.r_opt Codec.r_int r with
  | exception Codec.Malformed _ -> ()
  | _ -> Alcotest.fail "bad option byte must raise Malformed"

(* ------------------------------------------------------------------ *)
(* Session basics *)

let test_session_clean_restart () =
  let wal = fresh_wal_path () in
  Fun.protect
    ~finally:(fun () -> cleanup wal)
    (fun () ->
      let cfg = test_cfg 0.45 21 in
      let ops = gen_ops ~n:60 ~seed:21 ~extent:4. in
      let s =
        Result.get_ok (Session.open_ ~wal ~snapshot_every:25 ~cfg ())
      in
      List.iter (apply_session s) ops;
      let fp = session_fingerprint s in
      Session.close s;
      let s2 = Result.get_ok (Session.open_ ~wal ()) in
      (match Session.recovery s2 with
      | None -> Alcotest.fail "expected a recovery on restart"
      | Some r ->
          Alcotest.(check int) "seq" 60 r.Session.seq;
          Alcotest.(check (option string)) "no corruption" None r.Session.corruption);
      check_fp "clean restart" fp (session_fingerprint s2);
      check_fp "matches scratch replay"
        (baseline ~cfg ~radius:1. ops ~prefix:60)
        (session_fingerprint s2);
      Session.close s2)

let test_session_refuses_foreign_file () =
  let wal = fresh_wal_path () in
  Fun.protect
    ~finally:(fun () -> cleanup wal)
    (fun () ->
      write_file wal "x,y,weight\n1,2,3\n";
      match Session.open_ ~wal () with
      | Error msg ->
          Alcotest.(check bool) "message names the path" true
            (String.length msg > 0);
          Alcotest.(check string) "file untouched" "x,y,weight\n1,2,3\n"
            (read_file wal)
      | Ok _ -> Alcotest.fail "must refuse to overwrite a non-WAL file")

let test_snapshot_survives_corrupt_newest () =
  let wal = fresh_wal_path () in
  Fun.protect
    ~finally:(fun () -> cleanup wal)
    (fun () ->
      let cfg = test_cfg 0.45 31 in
      let ops = gen_ops ~n:50 ~seed:31 ~extent:4. in
      let s =
        Result.get_ok (Session.open_ ~wal ~snapshot_every:20 ~cfg ())
      in
      List.iter (apply_session s) ops;
      Session.close s;
      (* Snapshots exist at 20 and 40; corrupt the newest: recovery
         must fall back to 20 + WAL replay and still match. *)
      let snap40 = Snapshot.path ~wal ~seq:40 in
      let data = read_file snap40 in
      let b = Bytes.of_string data in
      Bytes.set b (Bytes.length b / 2)
        (Char.chr (Char.code (Bytes.get b (Bytes.length b / 2)) lxor 0x40));
      write_file snap40 (Bytes.to_string b);
      let before = Obs.value skipped_corrupt in
      let s2 =
        Obs.with_enabled true (fun () -> Result.get_ok (Session.open_ ~wal ()))
      in
      Alcotest.(check int) "the skip is counted" 1
        (Obs.value skipped_corrupt - before);
      (match Session.recovery s2 with
      | Some r ->
          Alcotest.(check (option int)) "fell back to snapshot 20" (Some 20)
            r.Session.snapshot_seq;
          Alcotest.(check int) "seq" 50 r.Session.seq
      | None -> Alcotest.fail "expected recovery");
      check_fp "corrupt-snapshot fallback"
        (baseline ~cfg ~radius:1. ops ~prefix:50)
        (session_fingerprint s2);
      Session.close s2)

(* ------------------------------------------------------------------ *)
(* Exhaustive truncation matrix *)

(* Build a small session log (with two live snapshots), then cut the
   WAL at every byte length 0..size. Every cut must recover without
   raising, land on max(newest snapshot, longest valid WAL prefix),
   and match the from-scratch baseline of that prefix bit for bit. *)
let test_truncation_matrix () =
  let cfg = test_cfg 0.45 77 in
  let n = 25 in
  let ops = gen_ops ~n ~seed:77 ~extent:4. in
  let master = fresh_wal_path () in
  Fun.protect
    ~finally:(fun () -> cleanup master)
    (fun () ->
      let s =
        Result.get_ok
          (Session.open_ ~wal:master ~snapshot_every:10 ~fsync:Wal.Never ~cfg ())
      in
      List.iter (apply_session s) ops;
      Session.close s;
      let data = read_file master in
      let scan =
        match Wal.scan master with Wal.Scan s -> s | _ -> assert false
      in
      let offsets = scan.Wal.offsets in
      let records = Array.of_list scan.Wal.records in
      let newest_snap =
        match Snapshot.load_all ~wal:master with
        | (seq, _, _) :: _ -> seq
        | [] -> 0
      in
      Alcotest.(check int) "two snapshots kept" 20 newest_snap;
      (* ops contained in the longest whole-record prefix within [cut]
         bytes; epoch markers don't count. *)
      let ops_within cut =
        let v = ref 0 in
        Array.iteri
          (fun i off ->
            if off <= cut then
              match records.(i) with
              | Wal.Insert _ | Wal.Delete _ | Wal.Sinsert _ | Wal.Sdelete _ ->
                  incr v
              | Wal.Epoch _ | Wal.Check _ -> ())
          offsets;
        !v
      in
      let fp_cache = Hashtbl.create 16 in
      let baseline_at prefix =
        match Hashtbl.find_opt fp_cache prefix with
        | Some fp -> fp
        | None ->
            let fp = baseline ~cfg ~radius:1. ops ~prefix in
            Hashtbl.add fp_cache prefix fp;
            fp
      in
      for cut = 0 to String.length data do
        let wal = fresh_wal_path () in
        Fun.protect
          ~finally:(fun () -> cleanup wal)
          (fun () ->
            write_file wal (String.sub data 0 cut);
            copy_snapshots ~from_wal:master ~to_wal:wal;
            match Session.open_ ~wal ~cfg () with
            | Error msg -> Alcotest.failf "cut at %d refused: %s" cut msg
            | Ok s ->
                let expected = max newest_snap (ops_within cut) in
                Alcotest.(check int)
                  (Printf.sprintf "cut at %d: recovered seq" cut)
                  expected (Session.seq s);
                check_fp
                  (Printf.sprintf "cut at %d" cut)
                  (baseline_at expected) (session_fingerprint s);
                Session.close s)
      done)

(* ------------------------------------------------------------------ *)
(* Randomized crash storm: truncations and bit flips *)

let crash_trials () =
  match Sys.getenv_opt "MAXRS_CRASH_TRIALS" with
  | Some v -> (try Int.max 4 (int_of_string v) with _ -> 240)
  | None -> 240

(* One storm over a prepared master log. Damage is either a random
   truncation anywhere in the file or a random bit flip past the
   8-byte magic (flipping the magic itself turns the file into a
   foreign file, which the session rightly refuses to touch). *)
let storm ~cfg ~ops ~master ~trials ~seed =
  let data = read_file master in
  let size = String.length data in
  let scan = match Wal.scan master with Wal.Scan s -> s | _ -> assert false in
  let offsets = scan.Wal.offsets in
  let records = Array.of_list scan.Wal.records in
  let header_end =
    if Array.length offsets > 0 then
      offsets.(0) - Wal.record_size records.(0)
    else size
  in
  let newest_snap =
    match Snapshot.load_all ~wal:master with (s, _, _) :: _ -> s | [] -> 0
  in
  let ops_before byte =
    (* ops in records that end at or before [byte]; a flip inside a
       record invalidates that record and everything after it *)
    let v = ref 0 in
    Array.iteri
      (fun i off ->
        if off <= byte then
          match records.(i) with
          | Wal.Insert _ | Wal.Delete _ | Wal.Sinsert _ | Wal.Sdelete _ ->
              incr v
          | Wal.Epoch _ | Wal.Check _ -> ())
      offsets;
    !v
  in
  let fp_cache = Hashtbl.create 16 in
  let baseline_at prefix =
    match Hashtbl.find_opt fp_cache prefix with
    | Some fp -> fp
    | None ->
        let fp = baseline ~cfg ~radius:1. ops ~prefix in
        Hashtbl.add fp_cache prefix fp;
        fp
  in
  let rng = Rng.create seed in
  for trial = 1 to trials do
    let wal = fresh_wal_path () in
    Fun.protect
      ~finally:(fun () -> cleanup wal)
      (fun () ->
        let kind, damaged, damage_at =
          if Rng.bernoulli rng 0.5 then
            let cut = Rng.int rng (size + 1) in
            ("truncate", String.sub data 0 cut, cut)
          else begin
            let off = 8 + Rng.int rng (size - 8) in
            let bit = Rng.int rng 8 in
            let b = Bytes.of_string data in
            Bytes.set b off
              (Char.chr (Char.code (Bytes.get b off) lxor (1 lsl bit)));
            ("bitflip", Bytes.to_string b, off)
          end
        in
        write_file wal damaged;
        copy_snapshots ~from_wal:master ~to_wal:wal;
        let expected_v =
          if kind = "truncate" then ops_before damage_at
          else if damage_at < header_end then 0
          else
            (* the record containing the flipped byte dies; everything
               before it survives (off <= damage_at would keep a record
               whose last byte is at damage_at - 1... offsets are
               exclusive ends, so a flip at byte [off] kills record i
               iff start_i <= off < offsets.(i), i.e. survives iff
               offsets.(i) <= off) *)
            ops_before damage_at
        in
        let expected = max newest_snap expected_v in
        match Session.open_ ~wal ~cfg () with
        | Error msg ->
            Alcotest.failf "trial %d (%s at %d): refused: %s" trial kind
              damage_at msg
        | Ok s ->
            Alcotest.(check int)
              (Printf.sprintf "trial %d (%s at %d): seq" trial kind damage_at)
              expected (Session.seq s);
            check_fp
              (Printf.sprintf "trial %d (%s at %d)" trial kind damage_at)
              (baseline_at expected) (session_fingerprint s);
            Session.close s)
  done

let test_crash_storm_with_snapshots () =
  let cfg = test_cfg 0.45 91 in
  let ops = gen_ops ~n:120 ~seed:91 ~extent:4. in
  let master = fresh_wal_path () in
  Fun.protect
    ~finally:(fun () -> cleanup master)
    (fun () ->
      let s =
        Result.get_ok
          (Session.open_ ~wal:master ~snapshot_every:35 ~fsync:Wal.Never ~cfg ())
      in
      List.iter (apply_session s) ops;
      Session.close s;
      storm ~cfg ~ops ~master ~trials:(crash_trials () / 2) ~seed:1001)

let test_crash_storm_wal_only () =
  let cfg = test_cfg 0.45 92 in
  let ops = gen_ops ~n:120 ~seed:92 ~extent:4. in
  let master = fresh_wal_path () in
  Fun.protect
    ~finally:(fun () -> cleanup master)
    (fun () ->
      let s =
        Result.get_ok
          (Session.open_ ~wal:master ~snapshot_every:0 ~fsync:Wal.Never ~cfg ())
      in
      List.iter (apply_session s) ops;
      Session.close s;
      storm ~cfg ~ops ~master ~trials:(crash_trials () - (crash_trials () / 2))
        ~seed:2002)

(* ------------------------------------------------------------------ *)
(* Sharded sessions: WAL-per-shard + manifest. The recovery contract
   is the same bit-identical prefix continuation as the solo session,
   now under damage confined to a SUBSET of the shard logs, and with
   parallel (multi-domain) recovery required to agree bit-for-bit with
   sequential (domains = 1) recovery of the same damage. *)

let sharded_master ~cfg ~ops ~shards ~snapshot_every =
  let master = fresh_wal_path () in
  let s =
    Result.get_ok
      (Session.open_ ~wal:master ~shards ~snapshot_every ~fsync:Wal.Never ~cfg
         ())
  in
  List.iter (apply_session s) ops;
  Session.close s;
  master

let test_sharded_clean_restart () =
  let cfg = test_cfg 0.45 93 in
  let ops = gen_ops ~n:100 ~seed:93 ~extent:4. in
  let master = sharded_master ~cfg ~ops ~shards:3 ~snapshot_every:40 in
  Fun.protect
    ~finally:(fun () -> cleanup master)
    (fun () ->
      (* the sharded session's state is bit-identical to a solo replay *)
      let s = Result.get_ok (Session.open_ ~wal:master ~cfg ()) in
      Alcotest.(check int) "shard count from manifest" 3 (Session.shards s);
      Alcotest.(check int) "seq preserved" (List.length ops) (Session.seq s);
      check_fp "sharded restart"
        (baseline ~cfg ~radius:1. ops ~prefix:(List.length ops))
        (session_fingerprint s);
      (* a [~shards] argument over an existing layout is ignored: the
         disk wins *)
      Session.close s;
      let s2 = Result.get_ok (Session.open_ ~wal:master ~shards:7 ~cfg ()) in
      Alcotest.(check int) "disk shard count wins" 3 (Session.shards s2);
      Session.close s2)

let test_sharded_manifest_lost_or_corrupt () =
  let cfg = test_cfg 0.45 94 in
  let ops = gen_ops ~n:80 ~seed:94 ~extent:4. in
  let master = sharded_master ~cfg ~ops ~shards:4 ~snapshot_every:30 in
  Fun.protect
    ~finally:(fun () -> cleanup master)
    (fun () ->
      let fp = baseline ~cfg ~radius:1. ops ~prefix:(List.length ops) in
      (* lost manifest: rebuilt from the shard log headers *)
      let manifest_data = read_file master in
      Sys.remove master;
      let s = Result.get_ok (Session.open_ ~wal:master ~cfg ()) in
      Alcotest.(check int) "shards rediscovered" 4 (Session.shards s);
      check_fp "manifest lost" fp (session_fingerprint s);
      Session.close s;
      Alcotest.(check bool)
        "manifest rewritten" true
        (match Shard_wal.read_manifest master with
        | Shard_wal.Manifest m -> m.Shard_wal.shards = 4
        | _ -> false);
      (* corrupt manifest payload: same rebuild path *)
      let b = Bytes.of_string manifest_data in
      Bytes.set b 20 (Char.chr (Char.code (Bytes.get b 20) lxor 0x40));
      write_file master (Bytes.to_string b);
      let s = Result.get_ok (Session.open_ ~wal:master ~cfg ()) in
      Alcotest.(check int) "shards after corrupt manifest" 4 (Session.shards s);
      check_fp "manifest corrupt" fp (session_fingerprint s);
      Session.close s)

let test_sharded_refuses_layout_conflicts () =
  let cfg = test_cfg 0.45 95 in
  let wal = fresh_wal_path () in
  Fun.protect
    ~finally:(fun () -> cleanup wal)
    (fun () ->
      (* solo WAL at the path: [~shards] must not overwrite it *)
      let s = Result.get_ok (Session.open_ ~wal ~cfg ()) in
      ignore (Session.insert s [| 0.5; 0.5 |] : Dynamic.handle);
      Session.close s;
      (match Session.open_ ~wal ~shards:2 ~cfg () with
      | Error _ -> ()
      | Ok s ->
          Session.close s;
          Alcotest.fail "sharding over a solo WAL was accepted");
      (* invalid shard count *)
      match Session.open_ ~wal:(fresh_wal_path ()) ~shards:0 ~cfg () with
      | Error _ -> ()
      | Ok s ->
          Session.close s;
          Alcotest.fail "shards = 0 was accepted")

(* Manifest and every shard log gone, snapshots intact: reopening with
   [~shards] recovers the newest snapshot into a rewritten layout rather
   than starting fresh beside it (a fresh log under a newer snapshot
   would have that stale snapshot adopted over its own ops on the next
   recovery). *)
let test_sharded_logs_lost () =
  let cfg = test_cfg 0.45 97 in
  let ops = gen_ops ~n:60 ~seed:97 ~extent:4. in
  let master = sharded_master ~cfg ~ops ~shards:3 ~snapshot_every:25 in
  Fun.protect
    ~finally:(fun () -> cleanup master)
    (fun () ->
      Sys.remove master;
      for k = 0 to 2 do
        Sys.remove (Shard_wal.shard_path master k)
      done;
      let s = Result.get_ok (Session.open_ ~wal:master ~shards:3 ~cfg ()) in
      (match Session.recovery s with
      | Some r ->
          Alcotest.(check (option int))
            "newest snapshot" (Some 50) r.Session.snapshot_seq;
          Alcotest.(check bool) "logs rewritten" true r.Session.wal_rewritten
      | None -> Alcotest.fail "opened fresh beside a surviving snapshot");
      Alcotest.(check int) "shards" 3 (Session.shards s);
      check_fp "snapshot adopted" (baseline ~cfg ~radius:1. ops ~prefix:50)
        (session_fingerprint s);
      Session.close s)

(* A manifest stamps every snapshot with the state's fingerprint. The
   snapshot's own checksum pass yields it, so a manifest snapshot
   captures and encodes the state once, like a single-log one: on the
   same ops their allocations agree within 10%. A close right after the
   snapshot reuses the fingerprint, and recovery verifies it.

   Allocation is read with an empty minor heap: OCaml 5.1's
   [Gc.counters], which [Gc.allocated_bytes] reads, counts the words
   pending in the minor heap at an eighth of their number. *)
let allocated_bytes () =
  Gc.minor ();
  Gc.allocated_bytes ()

let test_manifest_snapshot_cost () =
  let cfg = test_cfg 0.45 99 in
  let ops = gen_ops ~n:120 ~seed:99 ~extent:4. in
  let snapshot_bytes shards =
    let wal = fresh_wal_path () in
    Fun.protect
      ~finally:(fun () -> cleanup wal)
      (fun () ->
        let s =
          Result.get_ok
            (Session.open_ ~wal ?shards ~snapshot_every:0 ~fsync:Wal.Never
               ~cfg ())
        in
        List.iter (apply_session s) ops;
        Session.snapshot_now s;
        let b0 = allocated_bytes () in
        Session.snapshot_now s;
        let bytes = allocated_bytes () -. b0 in
        Session.close s;
        let s2 = Result.get_ok (Session.open_ ~wal ()) in
        check_fp "reopened"
          (baseline ~cfg ~radius:1. ops ~prefix:(List.length ops))
          (session_fingerprint s2);
        Session.close s2;
        bytes)
  in
  let single = snapshot_bytes None and manifest = snapshot_bytes (Some 3) in
  Alcotest.(check bool)
    (Printf.sprintf "manifest %.0f B within 10%% of single log %.0f B" manifest
       single)
    true
    (manifest <= 1.1 *. single)

(* Crash storm over the sharded layout: each trial damages a random
   nonempty subset of the shard logs (truncation anywhere, a bit flip
   anywhere — including the magic — or deleting the file outright),
   then recovers twice from identical copies of the damage: once with
   the default (parallel) scan and once with [~domains:1]. Both must
   succeed, agree on the recovered seq, and be bit-identical to a solo
   [Dynamic] replay of that op prefix. *)
let storm_sharded ~cfg ~ops ~master ~shards ~trials ~seed =
  let datas = Array.init shards (fun k -> read_file (Shard_wal.shard_path master k)) in
  let manifest_data = read_file master in
  let newest_snap =
    match Snapshot.load_all ~wal:master with (s, _, _) :: _ -> s | [] -> 0
  in
  let total = List.length ops in
  let fp_cache = Hashtbl.create 16 in
  let baseline_at prefix =
    match Hashtbl.find_opt fp_cache prefix with
    | Some fp -> fp
    | None ->
        let fp = baseline ~cfg ~radius:1. ops ~prefix in
        Hashtbl.add fp_cache prefix fp;
        fp
  in
  let rng = Rng.create seed in
  for trial = 1 to trials do
    let wal = fresh_wal_path () and wal2 = fresh_wal_path () in
    Fun.protect
      ~finally:(fun () ->
        cleanup wal;
        cleanup wal2)
      (fun () ->
        let damaged = Array.init shards (fun _ -> Rng.bernoulli rng 0.5) in
        if not (Array.exists Fun.id damaged) then
          damaged.(Rng.int rng shards) <- true;
        let desc = Buffer.create 32 in
        Array.iteri
          (fun k dmg ->
            let data = datas.(k) in
            let out =
              if not dmg then Some data
              else
                let size = String.length data in
                match Rng.int rng 3 with
                | 0 ->
                    let cut = Rng.int rng (size + 1) in
                    Buffer.add_string desc (Printf.sprintf " s%d:cut@%d" k cut);
                    Some (String.sub data 0 cut)
                | 1 ->
                    let off = Rng.int rng size in
                    let bit = Rng.int rng 8 in
                    let b = Bytes.of_string data in
                    Bytes.set b off
                      (Char.chr (Char.code (Bytes.get b off) lxor (1 lsl bit)));
                    Buffer.add_string desc (Printf.sprintf " s%d:flip@%d" k off);
                    Some (Bytes.to_string b)
                | _ ->
                    Buffer.add_string desc (Printf.sprintf " s%d:gone" k);
                    None
            in
            Option.iter
              (fun d ->
                write_file (Shard_wal.shard_path wal k) d;
                write_file (Shard_wal.shard_path wal2 k) d)
              out)
          damaged;
        write_file wal manifest_data;
        write_file wal2 manifest_data;
        copy_snapshots ~from_wal:master ~to_wal:wal;
        copy_snapshots ~from_wal:master ~to_wal:wal2;
        let what = Buffer.contents desc in
        match Session.open_ ~wal ~cfg () with
        | Error msg -> Alcotest.failf "trial %d (%s): refused: %s" trial what msg
        | Ok s ->
            let got_seq = Session.seq s in
            if got_seq < newest_snap || got_seq > total then
              Alcotest.failf "trial %d (%s): seq %d outside [%d, %d]" trial
                what got_seq newest_snap total;
            check_fp
              (Printf.sprintf "trial %d (%s)" trial what)
              (baseline_at got_seq) (session_fingerprint s);
            Session.close s;
            (* sequential recovery of the identical damage must agree *)
            (match Session.open_ ~wal:wal2 ~domains:1 ~cfg () with
            | Error msg ->
                Alcotest.failf "trial %d (%s): sequential refused: %s" trial
                  what msg
            | Ok s2 ->
                Alcotest.(check int)
                  (Printf.sprintf "trial %d (%s): parallel seq = sequential"
                     trial what)
                  got_seq (Session.seq s2);
                check_fp
                  (Printf.sprintf "trial %d (%s): sequential" trial what)
                  (baseline_at got_seq) (session_fingerprint s2);
                Session.close s2))
  done

let test_sharded_crash_storm () =
  let cfg = test_cfg 0.45 96 in
  let ops = gen_ops ~n:120 ~seed:96 ~extent:4. in
  let master = sharded_master ~cfg ~ops ~shards:3 ~snapshot_every:35 in
  Fun.protect
    ~finally:(fun () -> cleanup master)
    (fun () ->
      storm_sharded ~cfg ~ops ~master ~shards:3
        ~trials:(Int.max 8 (crash_trials () / 4))
        ~seed:3003)

(* ------------------------------------------------------------------ *)
(* On-disk format golden: one fixed script written through [Session]
   as a single-log layout and as a 3-shard layout. The byte length and
   CRC-32 of every file it leaves (logs, manifest, snapshots) are pinned
   in cli_golden/durable_layout.golden, so any change to either format —
   framing, field order, which records are written when — is a visible,
   reviewed diff. The script crosses several epoch rebuilds, so the
   single log carries [Epoch] markers. *)

let golden_dir =
  Filename.concat (Filename.dirname Sys.executable_name) "cli_golden"

let layout_listing () =
  let cfg = test_cfg 0.45 41 in
  let ops = gen_ops ~n:250 ~seed:41 ~extent:4. in
  let dir = Filename.temp_dir "maxrs_layout" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      List.iter
        (fun (name, shards) ->
          let s =
            Result.get_ok
              (Session.open_ ~wal:(Filename.concat dir name) ?shards
                 ~snapshot_every:100 ~fsync:Wal.Never ~cfg ())
          in
          List.iter (apply_session s) ops;
          Session.close s)
        [ ("single.wal", None); ("sharded.wal", Some 3) ];
      let epochs =
        match Wal.scan (Filename.concat dir "single.wal") with
        | Wal.Scan sc ->
            List.length
              (List.filter
                 (function Wal.Epoch _ -> true | _ -> false)
                 sc.Wal.records)
        | _ -> 0
      in
      Alcotest.(check bool)
        "single log holds >= 2 epoch markers" true (epochs >= 2);
      Sys.readdir dir |> Array.to_list |> List.sort String.compare
      |> List.map (fun f ->
             let data = read_file (Filename.concat dir f) in
             Printf.sprintf "%s %d %08x" f (String.length data)
               (Crc32.of_string data)))

let test_layout_golden () =
  let expected =
    read_file (Filename.concat golden_dir "durable_layout.golden")
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  Alcotest.(check (list string)) "file bytes match the golden" expected
    (layout_listing ())

(* ------------------------------------------------------------------ *)
(* Wal.write_all under short writes: a non-blocking pipe (64 KiB
   kernel buffer) against a 1 MiB payload forces the kernel to return
   short counts and EAGAIN; the loop must still deliver every byte in
   order. *)

let test_wal_short_writes () =
  let r, w = Unix.pipe () in
  Unix.set_nonblock w;
  let n = 1 lsl 20 in
  let data = Bytes.init n (fun i -> Char.chr ((i * 131) land 0xff)) in
  let received = Buffer.create n in
  let reader_t =
    Thread.create
      (fun () ->
        let buf = Bytes.create 8192 in
        let continue = ref true in
        while !continue do
          match Unix.read r buf 0 8192 with
          | 0 -> continue := false
          | k ->
              Buffer.add_subbytes received buf 0 k;
              (* drain slower than the writer fills, so the pipe stays
                 full and the writer keeps seeing partial progress *)
              Thread.delay 0.0002
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        done)
      ()
  in
  Wal.write_all w data;
  Unix.close w;
  Thread.join reader_t;
  Unix.close r;
  Alcotest.(check int) "all bytes arrive" n (Buffer.length received);
  Alcotest.(check bool)
    "bytes identical" true
    (String.equal (Buffer.contents received) (Bytes.to_string data))

(* ------------------------------------------------------------------ *)
(* Decoder totality: adversarial bytes must come back as [Error],
   never as an exception and never via an allocation proportional to a
   corrupt length field. *)

let reference_encoding =
  lazy
    (let cfg = test_cfg 0.4 7 in
     let dyn = Dynamic.create ~cfg ~radius:1.0 ~dim:2 () in
     List.iter (apply_dyn dyn) (gen_ops ~n:40 ~seed:11 ~extent:8.);
     Codec.encode_state (Dynamic.state dyn))

let qcheck_decode_garbage_total =
  QCheck.Test.make ~count:500
    ~name:"codec: decode_state_result of garbage is Error, never raises"
    QCheck.(string_gen Gen.char)
    (fun s ->
      match Codec.decode_state_result s with
      | Ok _ -> true
      | Error m -> String.length m > 0)

let qcheck_decode_flip_total =
  QCheck.Test.make ~count:500
    ~name:"codec: bit-flipped state encodings decode totally"
    QCheck.(pair small_nat small_nat)
    (fun (i, b) ->
      let s = Lazy.force reference_encoding in
      let by = Bytes.of_string s in
      let i = i mod Bytes.length by in
      Bytes.set by i
        (Char.chr (Char.code (Bytes.get by i) lxor (1 + (b mod 255))));
      match Codec.decode_state_result (Bytes.unsafe_to_string by) with
      | Ok _ -> true
      | Error m -> String.length m > 0)

let qcheck_decode_truncated_total =
  QCheck.Test.make ~count:200
    ~name:"codec: truncated state encodings decode totally"
    QCheck.small_nat
    (fun k ->
      let s = Lazy.force reference_encoding in
      let k = k mod (String.length s + 1) in
      match Codec.decode_state_result (String.sub s 0 k) with
      | Ok _ -> k = String.length s
      | Error m -> String.length m > 0)

(* An 8-byte message advertising a 2^27-element array: [r_len] must
   reject it against the remaining-byte count before allocating. *)
let test_codec_huge_length () =
  let b = Buffer.create 16 in
  Codec.int_ b (1 lsl 27);
  let data = Buffer.contents b in
  (match Codec.r_float_array (Codec.reader data) "arr" with
  | exception Codec.Malformed _ -> ()
  | _ -> Alcotest.fail "huge float-array length accepted");
  (match Codec.r_int_array (Codec.reader data) "arr" with
  | exception Codec.Malformed _ -> ()
  | _ -> Alcotest.fail "huge int-array length accepted");
  match Codec.decode_state_result data with
  | Ok _ -> Alcotest.fail "huge state length accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* State encodings that pass a CRC but are malformed. [wire_state]
   writes the state wire format field by field from the columns with
   the codec's [Buffer] primitives — a second implementation of the
   format. It can add an empty grid or drop the last one (a grid count
   the config disagrees with), and offset the first non-empty grid's
   position CRC: what a snapshot redrawn under another libm looks
   like to the decoder. *)

let wire_state ?(grids_delta = 0) ?(pos_crc_delta = 0) (st : Dynamic.State.t)
    =
  let b = Buffer.create 4096 in
  let sp = st.Dynamic.State.space in
  let dim = sp.SS.dim and m = sp.SS.samples_per_cell in
  Codec.int_ b st.Dynamic.State.dim;
  Codec.f64 b st.Dynamic.State.radius;
  Codec.config b st.Dynamic.State.cfg;
  Codec.int_ b (List.length st.Dynamic.State.balls);
  List.iter
    (fun (h, (c, w)) ->
      Codec.int_ b (Dynamic.handle_id h);
      Codec.float_array b c;
      Codec.f64 b w)
    st.Dynamic.State.balls;
  Codec.int_ b st.Dynamic.State.n0;
  Codec.int_ b st.Dynamic.State.next_handle;
  Codec.int_ b st.Dynamic.State.epochs;
  Codec.int_ b dim;
  Codec.int_ b m;
  let ngrids = Array.length sp.SS.grids + grids_delta in
  Codec.int_ b ngrids;
  let offset = ref pos_crc_delta in
  Array.iteri
    (fun gi (g : SS.grid) ->
      if gi < ngrids then begin
        Codec.i64 b g.SS.rng;
        Codec.int_ b g.SS.next_id;
        Codec.int_ b (SS.cells g);
        let pos_crc = ref 0 in
        for j = 0 to Float.Array.length g.SS.pos - 1 do
          let le = Bytes.create 8 in
          Bytes.set_int64_le le 0
            (Int64.bits_of_float (Float.Array.get g.SS.pos j));
          pos_crc := Crc32.update !pos_crc (Bytes.to_string le) ~pos:0 ~len:8
        done;
        let off = if SS.cells g > 0 then !offset else 0 in
        if SS.cells g > 0 then offset := 0;
        Codec.int_ b ((!pos_crc + off) land 0xFFFFFFFF);
        for i = 0 to SS.cells g - 1 do
          for k = 0 to dim - 1 do
            Codec.int_ b g.SS.keys.((i * dim) + k)
          done;
          Codec.int_ b g.SS.nballs.(i);
          Codec.i64 b (Bigarray.Array1.get g.SS.stamps i);
          Codec.int_ b g.SS.bases.(i);
          for j = 0 to m - 1 do
            Codec.f64 b (Float.Array.get g.SS.depth ((i * m) + j))
          done
        done
      end)
    sp.SS.grids;
  for _ = 1 to grids_delta do
    (* an empty grid: rng, next_id, no cells, the CRC of no positions *)
    Codec.i64 b 0L;
    Codec.int_ b 0;
    Codec.int_ b 0;
    Codec.int_ b 0
  done;
  Buffer.contents b

let grid_count_variants st =
  [
    ("one grid more than the config's", wire_state ~grids_delta:1 st);
    ("one grid fewer than the config's", wire_state ~grids_delta:(-1) st);
  ]

let guard_variant st =
  ("a position CRC off by one", wire_state ~pos_crc_delta:1 st)

let test_codec_rejects_malformed_state () =
  let cfg = test_cfg 0.45 41 in
  let dyn = Dynamic.create ~cfg ~radius:1. ~dim:2 () in
  List.iter (apply_dyn dyn) (gen_ops ~n:30 ~seed:41 ~extent:4.);
  let st = Dynamic.state dyn in
  Alcotest.(check bool)
    "the field-by-field writer reproduces the codec" true
    (String.equal (wire_state st) (Codec.encode_state st));
  List.iter
    (fun (what, data) ->
      (match Codec.decode_state_result data with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: decoded" what);
      match Codec.decode_state data with
      | exception Codec.Malformed _ -> ()
      | _ -> Alcotest.failf "%s: decode_state did not raise Malformed" what)
    (guard_variant st :: grid_count_variants st)

(* A colored update writes per-sample flags, which the state does not
   carry: capturing such a space must fail rather than lose them. *)
let test_state_refuses_colored_space () =
  let space =
    Maxrs.Sample_space.create ~dim:2 ~cfg:(test_cfg 0.45 3) ~expected_n:10
  in
  Maxrs.Sample_space.insert space ~center:[| 0.; 0. |] ~weight:1.;
  ignore (Maxrs.Sample_space.state space : SS.t);
  Maxrs.Sample_space.touch_colored_in_grid space ~grid:0 ~center:[| 0.5; 0. |]
    ~color:0;
  match Maxrs.Sample_space.state space with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "state of a colored space was captured"

(* A checksummed snapshot file holding [payload], the state encoding:
   the current layout, or the retired one ([MXSNAP01], seq ahead of
   the state) that this build no longer reads. *)
let snapshot_file ?(v1 = false) ~seq payload =
  let seq_bytes =
    let b = Buffer.create 8 in
    Codec.int_ b seq;
    Buffer.contents b
  in
  let body = if v1 then seq_bytes ^ payload else payload ^ seq_bytes in
  let b = Buffer.create (String.length body + 12) in
  Buffer.add_string b (if v1 then "MXSNAP01" else "MXSNAP02");
  Buffer.add_int32_le b (Int32.of_int (Crc32.of_string body));
  Buffer.add_string b body;
  Buffer.contents b

(* [st] with one cell field rewritten: [f] gets the first non-empty
   grid of the space and returns its replacement. *)
let with_first_grid (st : Dynamic.State.t) f =
  let sp = st.Dynamic.State.space in
  let grids = Array.copy sp.SS.grids in
  let rec first gi = if SS.cells grids.(gi) > 0 then gi else first (gi + 1) in
  let gi = first 0 in
  grids.(gi) <- f grids.(gi);
  { st with Dynamic.State.space = { sp with SS.grids } }

let without_ball (g : SS.grid) =
  let nballs = Array.copy g.SS.nballs in
  nballs.(0) <- 0;
  { g with SS.nballs }

(* Checksummed newest snapshots the decoder or the restore rejects — a
   position CRC that the redraw misses (as under another libm) and a
   cell without a ball: recovery skips each, counts the skip, and lands
   bit-identically on the older snapshot plus the log. *)
let test_recovery_skips_malformed_snapshot () =
  let cfg = test_cfg 0.45 43 in
  let ops = gen_ops ~n:50 ~seed:43 ~extent:4. in
  let expected = baseline ~cfg ~radius:1. ops ~prefix:50 in
  let st40 = ref None in
  let wal = fresh_wal_path () in
  Fun.protect
    ~finally:(fun () -> cleanup wal)
    (fun () ->
      let s =
        Result.get_ok (Session.open_ ~wal ~snapshot_every:20 ~cfg ())
      in
      List.iter (apply_session s) ops;
      Session.close s;
      List.iter
        (fun (seq, st, _) -> if seq = 40 then st40 := Some st)
        (Snapshot.load_all ~wal));
  let st40 = Option.get !st40 in
  List.iter
    (fun (what, payload) ->
      let wal = fresh_wal_path () in
      Fun.protect
        ~finally:(fun () -> cleanup wal)
        (fun () ->
          let s =
            Result.get_ok (Session.open_ ~wal ~snapshot_every:20 ~cfg ())
          in
          List.iter (apply_session s) ops;
          Session.close s;
          write_file
            (Snapshot.path ~wal ~seq:40)
            (snapshot_file ~seq:40 payload);
          let before = Obs.value skipped_corrupt in
          let s2 =
            Obs.with_enabled true (fun () ->
                Result.get_ok (Session.open_ ~wal ()))
          in
          Alcotest.(check int) (what ^ ": one skip counted") 1
            (Obs.value skipped_corrupt - before);
          (match Session.recovery s2 with
          | Some r ->
              Alcotest.(check (option int))
                (what ^ ": fell back to snapshot 20")
                (Some 20) r.Session.snapshot_seq
          | None -> Alcotest.fail "expected recovery");
          check_fp what expected (session_fingerprint s2);
          Session.close s2))
    [
      guard_variant st40;
      ( "a cell without a ball",
        Codec.encode_state (with_first_grid st40 without_ball) );
    ]

(* A snapshot in the retired layout fails the magic check. Beside a log
   that starts at op 0 it is skipped, counted, and the log replayed;
   beside a log that starts later, nothing covers the gap and open
   refuses. *)
let test_retired_snapshot_layout () =
  let cfg = test_cfg 0.45 45 in
  let ops = gen_ops ~n:50 ~seed:45 ~extent:4. in
  let expected = baseline ~cfg ~radius:1. ops ~prefix:50 in
  let wal = fresh_wal_path () in
  Fun.protect
    ~finally:(fun () -> cleanup wal)
    (fun () ->
      let s = Result.get_ok (Session.open_ ~wal ~snapshot_every:0 ~cfg ()) in
      List.iter (apply_session s) ops;
      let payload = Codec.encode_state (Session.state s) in
      Session.close s;
      write_file (Snapshot.path ~wal ~seq:50)
        (snapshot_file ~v1:true ~seq:50 payload);
      let before = Obs.value skipped_corrupt in
      let s2 =
        Obs.with_enabled true (fun () -> Result.get_ok (Session.open_ ~wal ()))
      in
      Alcotest.(check int) "base 0: the skip is counted" 1
        (Obs.value skipped_corrupt - before);
      (match Session.recovery s2 with
      | Some r ->
          Alcotest.(check (option int)) "base 0: no snapshot used" None
            r.Session.snapshot_seq;
          Alcotest.(check int) "base 0: the whole log replayed" 50
            r.Session.replayed
      | None -> Alcotest.fail "expected recovery");
      check_fp "base 0" expected (session_fingerprint s2);
      Session.close s2);
  let wal = fresh_wal_path () in
  Fun.protect
    ~finally:(fun () -> cleanup wal)
    (fun () ->
      let s = Result.get_ok (Session.open_ ~wal ~snapshot_every:20 ~cfg ()) in
      List.iter (apply_session s) ops;
      Session.close s;
      (* With the log gone, recovery adopts snapshot 40 and rewrites the
         log from there: it now starts at op 40. *)
      Sys.remove wal;
      let s = Result.get_ok (Session.open_ ~wal ()) in
      let payload = Codec.encode_state (Session.state s) in
      Session.close s;
      List.iter (fun (_, _, file) -> Sys.remove file) (Snapshot.load_all ~wal);
      write_file (Snapshot.path ~wal ~seq:40)
        (snapshot_file ~v1:true ~seq:40 payload);
      match Session.open_ ~wal () with
      | Ok _ -> Alcotest.fail "base 40: opened without a usable snapshot"
      | Error msg ->
          let needle = "no usable snapshot covers the gap" in
          let n = String.length needle and m = String.length msg in
          let rec has i =
            i + n <= m && (String.sub msg i n = needle || has (i + 1))
          in
          if not (has 0) then Alcotest.failf "base 40: unexpected error %S" msg)

(* ------------------------------------------------------------------ *)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      qcheck_f64_roundtrip;
      qcheck_int_roundtrip;
      qcheck_fvec_roundtrip;
      qcheck_wal_roundtrip;
      qcheck_state_roundtrip;
    ]

let test_restore_rejects_unsound_cells () =
  let cfg = test_cfg 0.45 47 in
  let dyn = Dynamic.create ~cfg ~radius:1. ~dim:2 () in
  List.iter (apply_dyn dyn) (gen_ops ~n:30 ~seed:47 ~extent:4.);
  let st = Dynamic.state dyn in
  ignore (Dynamic.restore st);
  List.iter
    (fun (what, f) ->
      match Dynamic.restore (with_first_grid st f) with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s: restored" what)
    [
      ("a cell without a ball", without_ball);
      ( "a base id of another grid",
        fun g ->
          let bases = Array.copy g.SS.bases in
          bases.(0) <- bases.(0) + 1;
          { g with SS.bases } );
    ]

(* Known answers beyond the golden's config: a fixed insert/delete script
   that crosses at least two epoch rebuilds, at three settings — the
   faithful 25-grid collection of [Config.default] at d = 2, d = 1, and
   d = 3 under a six-shift cap. Each pins the encoded state's CRC and
   the bits of [best], so any change to the cells, their depths, their
   stamps or uids, or to the draw order moves a pin. *)
let known_answer_script ~cfg ~dim =
  let rng = Rng.create (40 + dim) in
  let d = Dynamic.create ~cfg ~dim () in
  let point () = Array.init dim (fun _ -> Rng.uniform rng 0. 6.) in
  let weight () = Float.of_int (1 + Rng.int rng 3) in
  let hs =
    Array.init 30 (fun _ -> Dynamic.insert d ~weight:(weight ()) (point ()))
  in
  Array.iteri (fun i h -> if i < 24 && i mod 2 = 0 then Dynamic.delete d h) hs;
  for _ = 1 to 6 do
    ignore (Dynamic.insert d ~weight:(weight ()) (point ()) : Dynamic.handle)
  done;
  d

let test_known_answers () =
  List.iter
    (fun (what, cfg, dim, crc, best) ->
      let d = known_answer_script ~cfg ~dim in
      Alcotest.(check bool)
        (what ^ ": two epoch rebuilds")
        true
        (Dynamic.epochs d >= 2);
      Alcotest.(check int)
        (what ^ ": state CRC")
        crc
        (Codec.state_crc (Dynamic.state d));
      let p, v = Option.get (Dynamic.best d) in
      Alcotest.(check (list int64))
        (what ^ ": best bits")
        best
        (List.map Int64.bits_of_float (Array.to_list p @ [ v ])))
    [
      ( "d=2 default",
        Config.default,
        2,
        0x35cc50d1,
        [ 0x4010453106b28644L; 0x4000873fedd4d7e2L; 0x4028000000000000L ] );
      ( "d=1 default",
        Config.default,
        1,
        0x4a18b177,
        [ 0x3ff1eb851eb851ecL; 0x4035000000000000L ] );
      ( "d=3 six shifts",
        Config.make ~max_grid_shifts:(Some 6) (),
        3,
        0x52947bdb,
        [
          0x3fed47c1d91406b2L;
          0x3ff2cef454e9c978L;
          0x3fe59066803fc551L;
          0x4020000000000000L;
        ] );
    ]

let () =
  Alcotest.run "durable"
    [
      ( "crc32",
        [
          Alcotest.test_case "known vectors" `Quick test_crc_vectors;
          Alcotest.test_case "detects single-bit flips" `Quick
            test_crc_detects_single_bit_flips;
          Alcotest.test_case "every alignment and 1 MiB match the reference"
            `Quick test_crc_every_alignment;
          Alcotest.test_case "resumable update and float columns" `Quick
            test_crc_resumable;
          QCheck_alcotest.to_alcotest qcheck_crc_matches_reference;
        ] );
      ( "codec",
        Alcotest.test_case "garbage raises Malformed" `Quick
          test_codec_rejects_garbage
        :: Alcotest.test_case "adversarial length fails before allocation"
             `Quick test_codec_huge_length
        :: Alcotest.test_case "malformed lengths under a valid CRC fail"
             `Quick test_codec_rejects_malformed_state
        :: Alcotest.test_case "state refuses a colored space" `Quick
             test_state_refuses_colored_space
        :: qcheck_cases
        @ List.map QCheck_alcotest.to_alcotest
            [
              qcheck_decode_garbage_total;
              qcheck_decode_flip_total;
              qcheck_decode_truncated_total;
            ] );
      ( "wal-io",
        [
          Alcotest.test_case "write_all survives short writes" `Quick
            test_wal_short_writes;
        ] );
      ( "format",
        [
          Alcotest.test_case "layout bytes match the golden" `Quick
            test_layout_golden;
          Alcotest.test_case "known answers at three configs" `Quick
            test_known_answers;
        ] );
      ( "session",
        [
          Alcotest.test_case "clean restart is bit-identical" `Quick
            test_session_clean_restart;
          Alcotest.test_case "refuses foreign files" `Quick
            test_session_refuses_foreign_file;
          Alcotest.test_case "corrupt newest snapshot falls back" `Quick
            test_snapshot_survives_corrupt_newest;
          Alcotest.test_case "malformed newest snapshot is skipped" `Quick
            test_recovery_skips_malformed_snapshot;
          Alcotest.test_case "restore rejects unsound cells" `Quick
            test_restore_rejects_unsound_cells;
          Alcotest.test_case "retired snapshot layout is skipped" `Quick
            test_retired_snapshot_layout;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "exhaustive truncation matrix" `Slow
            test_truncation_matrix;
          Alcotest.test_case "crash storm (snapshots + WAL)" `Slow
            test_crash_storm_with_snapshots;
          Alcotest.test_case "crash storm (WAL only)" `Slow
            test_crash_storm_wal_only;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "clean restart is bit-identical" `Quick
            test_sharded_clean_restart;
          Alcotest.test_case "manifest lost or corrupt" `Quick
            test_sharded_manifest_lost_or_corrupt;
          Alcotest.test_case "refuses layout conflicts" `Quick
            test_sharded_refuses_layout_conflicts;
          Alcotest.test_case "all logs lost, snapshot survives" `Quick
            test_sharded_logs_lost;
          Alcotest.test_case "a snapshot costs one capture" `Quick
            test_manifest_snapshot_cost;
          Alcotest.test_case "multi-shard crash storm" `Slow
            test_sharded_crash_storm;
        ] );
    ]
