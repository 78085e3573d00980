(* Differential suite for the sharded dynamic store (PR 8 tentpole).

   The contract under test: a [Sharded.t] and an unsharded [Dynamic.t]
   fed the same operation sequence return bit-identical [best] answers
   after every op and capture byte-equal [Codec.encode_state]
   fingerprints — for every shard count, every domain count, and every
   injected-fault schedule on the pool. *)

module Point = Maxrs_geom.Point
module Rng = Maxrs_geom.Rng
module Config = Maxrs.Config
module Dynamic = Maxrs.Dynamic
module Sharded = Maxrs.Sharded
module Parallel = Maxrs_parallel.Parallel
module Codec = Maxrs_durable.Codec
module SS = Maxrs.Sample_space.State

let test_cfg = Config.make ~epsilon:0.25 ~seed:7 ()

(* ------------------------------------------------------------------ *)
(* Deterministic op scripts.

   An op is insert / delete / query; deletes pick a victim by index
   into the currently-live handle list, so a script replays the same
   logical sequence on any structure. *)

type op = Ins of float array * float | Del of int | Query

let gen_ops ~seed ~n ~dim =
  let rng = Rng.create seed in
  let live = ref 0 in
  List.init n (fun _ ->
      let r = Rng.uniform rng 0. 1. in
      if r < 0.55 || !live = 0 then begin
        incr live;
        Ins
          ( Array.init dim (fun _ -> Rng.uniform rng 0. 3.),
            Float.of_int (1 + Rng.int rng 4) )
      end
      else if r < 0.8 then begin
        decr live;
        Del (Rng.int rng (!live + 1))
      end
      else Query)

(* Replay a script through any (insert, delete, best) triple, returning
   the trace of query answers. [handles] carries the live-handle array
   across split replays (capture/restore scenarios). *)
let replay ?(handles = ref [||]) ~insert ~delete ~best ops =
  let trace = ref [] in
  List.iter
    (fun op ->
      match op with
      | Ins (p, w) ->
          let h = insert ~weight:w p in
          handles := Array.append !handles [| h |]
      | Del i ->
          let i = i mod Array.length !handles in
          delete !handles.(i);
          handles :=
            Array.append
              (Array.sub !handles 0 i)
              (Array.sub !handles (i + 1) (Array.length !handles - i - 1))
      | Query -> trace := best () :: !trace)
    ops;
  List.rev !trace

let run_dynamic ops =
  let d = Dynamic.create ~cfg:test_cfg ~dim:2 () in
  let trace =
    replay
      ~insert:(fun ~weight p -> Dynamic.insert d ~weight p)
      ~delete:(Dynamic.delete d) ~best:(fun () -> Dynamic.best d) ops
  in
  (trace, Codec.encode_state (Dynamic.state d), Dynamic.epochs d)

let run_sharded ?(shards = 4) ?(domains = 1) ops =
  let s = Sharded.create ~cfg:test_cfg ~dim:2 ~shards ~domains () in
  Fun.protect
    ~finally:(fun () -> Sharded.close s)
    (fun () ->
      let trace =
        replay
          ~insert:(fun ~weight p -> Sharded.insert s ~weight p)
          ~delete:(Sharded.delete s)
          ~best:(fun () -> Sharded.best s)
          ops
      in
      (trace, Codec.encode_state (Sharded.state s), Sharded.epochs s))

(* Bit-identical comparison: floats via Int64 bits, points element-wise. *)
let answer_eq a b =
  match (a, b) with
  | None, None -> true
  | Some (p, d), Some (q, e) ->
      Int64.equal (Int64.bits_of_float d) (Int64.bits_of_float e)
      && Array.length p = Array.length q
      && Array.for_all2
           (fun x y ->
             Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
           p q
  | _ -> false

let check_identical ~what (tr_ref, fp_ref, ep_ref) (tr, fp, ep) =
  Alcotest.(check int) (what ^ ": trace length") (List.length tr_ref)
    (List.length tr);
  List.iteri
    (fun i (a, b) ->
      if not (answer_eq a b) then
        Alcotest.failf "%s: query %d diverged from the unsharded reference"
          what i)
    (List.combine tr_ref tr);
  Alcotest.(check int) (what ^ ": epochs") ep_ref ep;
  if not (String.equal fp_ref fp) then
    Alcotest.failf "%s: state fingerprint diverged" what

(* ------------------------------------------------------------------ *)
(* Unit tests *)

let shard_counts = [ 1; 2; 4; 8 ]

let test_differential_shards () =
  let ops = gen_ops ~seed:11 ~n:220 ~dim:2 in
  let reference = run_dynamic ops in
  List.iter
    (fun shards ->
      check_identical
        ~what:(Printf.sprintf "shards=%d" shards)
        reference
        (run_sharded ~shards ops))
    shard_counts

let test_differential_domains () =
  let ops = gen_ops ~seed:23 ~n:220 ~dim:2 in
  let reference = run_dynamic ops in
  List.iter
    (fun domains ->
      check_identical
        ~what:(Printf.sprintf "domains=%d" domains)
        reference
        (run_sharded ~shards:8 ~domains ops))
    [ 1; 2; 4 ]

let test_differential_under_faults () =
  (* Poisoned pool: deterministic injected faults on the shard chunks
     exercise the retry/park recovery path; answers must not move. *)
  let ops = gen_ops ~seed:31 ~n:150 ~dim:2 in
  let reference = run_dynamic ops in
  let saved = Parallel.Faults.current () in
  Fun.protect
    ~finally:(fun () ->
      match saved with
      | Some c -> Parallel.Faults.configure c
      | None -> Parallel.Faults.disable ())
    (fun () ->
      Parallel.Faults.configure { Parallel.Faults.seed = 42; rate = 0.3 };
      Parallel.Faults.reset_counters ();
      check_identical ~what:"faulty pool" reference
        (run_sharded ~shards:8 ~domains:4 ops);
      Alcotest.(check bool)
        "schedule actually injected faults" true
        (Parallel.Faults.injected_count () > 0))

let test_state_restore_roundtrip () =
  (* Capture mid-script, restore at a different shard count, continue:
     the continuation must match a reference that never stopped. *)
  let ops = gen_ops ~seed:47 ~n:300 ~dim:2 in
  let prefix = List.filteri (fun i _ -> i < 150) ops in
  let suffix = List.filteri (fun i _ -> i >= 150) ops in
  (* Reference runs the whole script in one life (one handle array). *)
  let reference =
    let d = Dynamic.create ~cfg:test_cfg ~dim:2 () in
    let handles = ref [||] in
    ignore
      (replay ~handles
         ~insert:(fun ~weight p -> Dynamic.insert d ~weight p)
         ~delete:(Dynamic.delete d)
         ~best:(fun () -> Dynamic.best d)
         prefix);
    let trace =
      replay ~handles
        ~insert:(fun ~weight p -> Dynamic.insert d ~weight p)
        ~delete:(Dynamic.delete d)
        ~best:(fun () -> Dynamic.best d)
        suffix
    in
    (trace, Codec.encode_state (Dynamic.state d), Dynamic.epochs d)
  in
  (* Sharded runs the prefix at 2 shards, restores at 8, continues. *)
  let s2 = Sharded.create ~cfg:test_cfg ~dim:2 ~shards:2 ~domains:2 () in
  ignore
    (replay
       ~insert:(fun ~weight p -> Sharded.insert s2 ~weight p)
       ~delete:(Sharded.delete s2)
       ~best:(fun () -> Sharded.best s2)
       prefix);
  let st = Sharded.state s2 in
  Sharded.close s2;
  let s8 = Sharded.restore ~shards:8 ~domains:2 st in
  Fun.protect
    ~finally:(fun () -> Sharded.close s8)
    (fun () ->
      (* Replaying the suffix needs the prefix's handles: rebuild the
         live-handle array from the restored state (sorted by handle,
         which is insertion order — the same order replay maintains). *)
      let handles =
        ref (Array.of_list (List.map fst st.Dynamic.State.balls))
      in
      let trace =
        replay ~handles
          ~insert:(fun ~weight p -> Sharded.insert s8 ~weight p)
          ~delete:(Sharded.delete s8)
          ~best:(fun () -> Sharded.best s8)
          suffix
      in
      check_identical ~what:"restore continuation" reference
        (trace, Codec.encode_state (Sharded.state s8), Sharded.epochs s8))

let test_storage_partition () =
  (* Every live handle has exactly one storage owner, and owners are
     stable across epochs (the spatial key does not depend on the
     sample space). *)
  let s = Sharded.create ~cfg:test_cfg ~dim:2 ~shards:4 ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Sharded.close s)
    (fun () ->
      let rng = Rng.create 3 in
      let hs =
        List.init 120 (fun _ ->
            let p = [| Rng.uniform rng 0. 3.; Rng.uniform rng 0. 3. |] in
            (Sharded.insert s p, p))
      in
      Alcotest.(check bool) "epochs crossed" true (Sharded.epochs s > 0);
      let seen = Array.make 4 0 in
      List.iter
        (fun (h, _) ->
          match Sharded.shard_of_handle s h with
          | Some sh -> seen.(sh) <- seen.(sh) + 1
          | None -> Alcotest.fail "live handle without an owner")
        hs;
      Alcotest.(check int) "owners cover all balls" 120
        (Array.fold_left ( + ) 0 seen);
      Alcotest.(check bool)
        "spatial keys actually spread over shards" true
        (Array.for_all (fun c -> c > 0) seen);
      (* Deleting through the owner works and clears ownership. *)
      let h0, _ = List.hd hs in
      Sharded.delete s h0;
      Alcotest.(check (option int)) "deleted handle unowned" None
        (Sharded.shard_of_handle s h0);
      Alcotest.check_raises "double delete" Not_found (fun () ->
          Sharded.delete s h0))

let test_closed_store_rejected () =
  let s = Sharded.create ~cfg:test_cfg ~dim:2 ~shards:2 ~domains:1 () in
  ignore (Sharded.insert s [| 0.; 0. |]);
  Sharded.close s;
  Sharded.close s;
  Alcotest.check_raises "insert on closed store"
    (Invalid_argument "Sharded.insert: closed store") (fun () ->
      ignore (Sharded.insert s [| 1.; 1. |]))

(* ------------------------------------------------------------------ *)
(* Property: random scripts never diverge, any shard count. *)

let prop_sharded_matches_dynamic =
  QCheck.Test.make ~count:12 ~name:"sharded == dynamic on random scripts"
    QCheck.(pair (int_bound 10_000) (int_bound 3))
    (fun (seed, si) ->
      let shards = List.nth shard_counts si in
      let ops = gen_ops ~seed:(seed + 1) ~n:120 ~dim:2 in
      let tr_ref, fp_ref, ep_ref = run_dynamic ops in
      let tr, fp, ep = run_sharded ~shards ~domains:2 ops in
      ep = ep_ref && String.equal fp fp_ref
      && List.for_all2 answer_eq tr_ref tr)

(* ------------------------------------------------------------------ *)
(* Property: the cell heap's top is the brute-force deepest cell.

   [best] reads the top of an indexed heap that the cell-change hook
   keeps in place, so after every op it must equal a brute force over
   the captured state: among the cells whose depths' first maximum is
   positive, the deepest, then the smallest uid (the cell's base, its
   first sample id), reported as the position of that first maximum.
   Scripts open with a burst of inserts that forces an epoch rebuild,
   then mix inserts and deletes around one state/restore. Weights are
   integers; half the balls sit on a dense half-unit lattice (depth
   ties between cells) and half on spots 4 apart, where a deletion
   drops the cells of an isolated ball — often the top. *)

let heap_cfg = Config.make ~epsilon:0.45 ~max_grid_shifts:(Some 4) ~seed:7 ()

(* The ops before and after the restore, each followed by a [Query]. *)
let gen_heap_script ~seed =
  let rng = Rng.create seed in
  let live = ref 0 in
  let ins () =
    incr live;
    let step = if Rng.bernoulli rng 0.5 then 4. else 0.5 in
    Ins
      ( [|
          step *. Float.of_int (Rng.int rng 6);
          0.5 *. Float.of_int (Rng.int rng 6);
        |],
        Float.of_int (1 + Rng.int rng 3) )
  in
  let op () =
    if !live > 0 && Rng.bernoulli rng 0.45 then begin
      decr live;
      Del (Rng.int rng (!live + 1))
    end
    else ins ()
  in
  let queried ops = List.concat_map (fun o -> [ o; Query ]) ops in
  let burst = List.init 10 (fun _ -> ins ()) in
  let before = burst @ List.init 25 (fun _ -> op ()) in
  let after = List.init 24 (fun _ -> op ()) in
  (queried before, queried after)

(* A cell's max and its argmax: the first maximum of its depths, as the
   update loops take it (strict [>]). *)
let first_max (g : SS.grid) ~m i =
  let arg = ref 0 in
  for si = 1 to m - 1 do
    if
      Float.Array.get g.SS.depth ((i * m) + si)
      > Float.Array.get g.SS.depth ((i * m) + !arg)
    then arg := si
  done;
  (Float.Array.get g.SS.depth ((i * m) + !arg), !arg)

let brute_best (st : Dynamic.State.t) =
  let sp = st.Dynamic.State.space in
  let m = sp.SS.samples_per_cell and dim = sp.SS.dim in
  let best = ref None in
  Array.iter
    (fun (g : SS.grid) ->
      for i = 0 to SS.cells g - 1 do
        let d, arg = first_max g ~m i and uid = g.SS.bases.(i) in
        if d > 0. then
          match !best with
          | Some (bd, buid, _) when bd > d || (bd = d && buid < uid) -> ()
          | _ -> best := Some (d, uid, (g, (i * m) + arg))
      done)
    sp.SS.grids;
  Option.map
    (fun (d, _, ((g : SS.grid), si)) ->
      let radius = st.Dynamic.State.radius in
      ( Array.init dim (fun k ->
            radius *. Float.Array.get g.SS.pos ((si * dim) + k)),
        d ))
    !best

(* Replay both halves, [restore] swapping the structure for one restored
   from its state in between; every [Query] checks [best] against the
   brute force. *)
let check_heap_script ~what ~insert ~delete ~best ~state ~restore
    (before, after) =
  let handles = ref [||] in
  let checked () =
    let b = best () in
    if not (answer_eq b (brute_best (state ()))) then
      Alcotest.failf "%s: best is not the brute-force deepest cell" what;
    b
  in
  ignore (replay ~handles ~insert ~delete ~best:checked before);
  restore ();
  ignore (replay ~handles ~insert ~delete ~best:checked after)

let prop_heap_matches_brute_force =
  QCheck.Test.make ~count:50 ~name:"best == brute-force deepest cell"
    QCheck.(pair (int_bound 10_000) (int_bound 3))
    (fun (seed, si) ->
      let shards = si + 1 in
      let script = gen_heap_script ~seed:(seed + 1) in
      let d = ref (Dynamic.create ~cfg:heap_cfg ~dim:2 ()) in
      check_heap_script ~what:"dynamic"
        ~insert:(fun ~weight p -> Dynamic.insert !d ~weight p)
        ~delete:(fun h -> Dynamic.delete !d h)
        ~best:(fun () -> Dynamic.best !d)
        ~state:(fun () -> Dynamic.state !d)
        ~restore:(fun () -> d := Dynamic.restore (Dynamic.state !d))
        script;
      let s = ref (Sharded.create ~cfg:heap_cfg ~dim:2 ~shards ()) in
      Fun.protect
        ~finally:(fun () -> Sharded.close !s)
        (fun () ->
          check_heap_script
            ~what:(Printf.sprintf "shards=%d" shards)
            ~insert:(fun ~weight p -> Sharded.insert !s ~weight p)
            ~delete:(fun h -> Sharded.delete !s h)
            ~best:(fun () -> Sharded.best !s)
            ~state:(fun () -> Sharded.state !s)
            ~restore:(fun () ->
              let st = Sharded.state !s in
              Sharded.close !s;
              s := Sharded.restore ~shards st)
            script);
      Dynamic.epochs !d > 0)

(* ------------------------------------------------------------------ *)
(* Allocation gate.

   Allocated words are deterministic for a given binary and input, so
   the write path's allocation is gated as a count, not a time: 1,000
   alternating writes (an insert, then the delete of the oldest live
   ball) on a structure warmed to 500 balls under [Config.default].
   Every word counts, minor and major alike ([Gc.allocated_bytes]): the
   sample space's row columns are allocated straight into the major
   heap, where a minor-word count would miss them. The key enumeration,
   the update loop, the cell refresh and the heap re-seat allocate
   nothing per grid or per visited cell. What is left is per op (the
   guard, the scaled center, the ball tables) and per new cell: its
   draw (4 words per sample, boxed floats in the sampler) and, amortized,
   the pages of rows and index growth it takes. A one-shard [Sharded]
   runs no domain, so its count holds under any [MAXRS_DOMAINS] and
   [MAXRS_FAULTS]. *)

let alloc_live = 500
let alloc_writes = 1_000

(* Words allocated so far, read with an empty minor heap. OCaml 5.1's
   [Gc.counters], which [Gc.allocated_bytes] reads, counts the words
   pending in the minor heap at an eighth of their number, so a reading
   taken with young blocks pending is short by up to 7/8 of them. After
   a minor collection nothing is pending and the reading is exact. *)
let allocated_words () =
  Gc.minor ();
  Gc.allocated_bytes () /. Float.of_int (Sys.word_size / 8)

(* [disturb] runs just before the window: the count must not depend on
   what the collector did before. *)
let words_per_write ?(disturb = ignore) ~insert ~delete () =
  let rng = Rng.create 19 in
  let point _ = [| Rng.uniform rng (-10.) 10.; Rng.uniform rng (-10.) 10. |] in
  let warm = Array.init alloc_live point in
  let fresh = Array.init (alloc_writes / 2) point in
  let ring = Array.map insert warm in
  disturb ();
  let w0 = allocated_words () in
  for i = 0 to (alloc_writes / 2) - 1 do
    let oldest = i mod alloc_live in
    delete ring.(oldest);
    ring.(oldest) <- insert fresh.(i)
  done;
  (allocated_words () -. w0) /. Float.of_int alloc_writes

let dynamic_words_per_write ?disturb () =
  let d = Dynamic.create ~dim:2 () in
  words_per_write ?disturb
    ~insert:(fun p -> Dynamic.insert d p)
    ~delete:(Dynamic.delete d) ()

let test_alloc_gate () =
  let dynamic = dynamic_words_per_write () in
  (* The same window after a full major collection, with 100k words of
     live blocks left in the minor heap: the same count. *)
  let ballast = ref [] in
  let disturbed =
    dynamic_words_per_write
      ~disturb:(fun () ->
        Gc.full_major ();
        ballast := List.init 33_000 Fun.id)
      ()
  in
  ignore (Sys.opaque_identity !ballast);
  let sharded =
    let s = Sharded.create ~dim:2 ~shards:1 () in
    Fun.protect
      ~finally:(fun () -> Sharded.close s)
      (fun () ->
        words_per_write
          ~insert:(fun p -> Sharded.insert s p)
          ~delete:(Sharded.delete s) ())
  in
  Printf.printf
    "words per write: dynamic %.2f (disturbed %.2f), one-shard sharded %.2f\n"
    dynamic disturbed sharded;
  Alcotest.(check (float 0.)) "count independent of the collector" dynamic
    disturbed;
  (* Bounds: 1.15x the measured 270.3 and 312.8 words per write (OCaml
     5.1, x86-64). *)
  Alcotest.(check bool)
    (Printf.sprintf "dynamic: %.1f words/write <= 311" dynamic)
    true (dynamic <= 311.);
  Alcotest.(check bool)
    (Printf.sprintf "one-shard sharded: %.1f words/write <= 360" sharded)
    true (sharded <= 360.)

let () =
  Alcotest.run "maxrs sharded"
    [
      ( "differential",
        [
          Alcotest.test_case "all shard counts" `Quick test_differential_shards;
          Alcotest.test_case "all domain counts" `Quick
            test_differential_domains;
          Alcotest.test_case "poisoned pool" `Quick
            test_differential_under_faults;
          QCheck_alcotest.to_alcotest prop_sharded_matches_dynamic;
          QCheck_alcotest.to_alcotest prop_heap_matches_brute_force;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "state/restore roundtrip" `Quick
            test_state_restore_roundtrip;
          Alcotest.test_case "storage partition" `Quick test_storage_partition;
          Alcotest.test_case "closed store" `Quick test_closed_store_rejected;
        ] );
      ( "allocation",
        [ Alcotest.test_case "write path" `Quick test_alloc_gate ] );
    ]
