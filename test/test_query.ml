(* Differential tests for the RMSQ read tier:

   - qcheck differential: indexed [max_sum_in_range] vs the linear
     reference scan over the SAME prefix column — identical segment
     indices and bit-identical sums — and vs textbook Kadane on
     integer weights (exact in float), over random subranges;
   - edge families: all-negative, all-zero, single-element, empty,
     NaN rejection;
   - the compiled fixed-length Interval1d question vs the sweep;
   - epoch-swap linearizability: concurrent readers racing publishes
     never observe a torn index (every entry answers exactly as its
     pre-published self) and observe monotone epochs;
   - staleness bound: [rmsq.lag_ops] = ops applied since the live
     entry was compiled, also via a live background builder;
   - snapshot compilation: an index compiled from a crash-recovered
     durable snapshot answers bit-identically to the sweep. *)

module Fvec = Maxrs_geom.Fvec
module Guard = Maxrs_resilience.Guard
module Obs = Maxrs_obs.Obs
module Interval1d = Maxrs_sweep.Interval1d
module Session = Maxrs_durable.Session
module Rmsq = Maxrs_query.Rmsq
module Epoch = Maxrs_query.Epoch
module Index_builder = Maxrs_query.Index_builder

let bits = Int64.bits_of_float

let seg_testable =
  Alcotest.testable
    (fun fmt (s : Rmsq.seg) ->
      Format.fprintf fmt "[%d..%d]=%h" s.s_lo s.s_hi s.s_sum)
    (fun a b ->
      a.Rmsq.s_lo = b.Rmsq.s_lo && a.s_hi = b.s_hi
      && bits a.s_sum = bits b.s_sum)

let check_seg = Alcotest.(check (option seg_testable))

(* Weighted 1-D point sets: coordinates and weights of both signs,
   with duplicate coordinates likely (small integer grid half of the
   time) to exercise tie-breaking. *)
let pts_gen =
  QCheck.Gen.(
    list_size (int_range 0 60)
      (pair
         (oneof
            [
              map float_of_int (int_range (-20) 20);
              map (fun f -> f *. 10.) (float_range (-1.) 1.);
            ])
         (oneof
            [
              map float_of_int (int_range (-9) 9);
              map (fun f -> f *. 5.) (float_range (-1.) 1.);
            ]))
    |> map Array.of_list)

let pts_arb = QCheck.make ~print:QCheck.Print.(array (pair float float)) pts_gen

(* Textbook Kadane over ws[lo..hi] (non-empty best subarray); exact on
   integer weights. *)
let kadane t ~lo ~hi =
  let best = ref neg_infinity and cur = ref 0. in
  for i = lo to hi do
    let w = Rmsq.weight t i in
    cur := (if !cur > 0. then !cur else 0.) +. w;
    if !cur > !best then best := !cur
  done;
  !best

let prop_matches_reference =
  QCheck.Test.make ~count:500 ~name:"indexed range query = linear reference"
    QCheck.(pair pts_arb (pair small_nat small_nat))
    (fun (pts, (a, b)) ->
      let t = Rmsq.build pts in
      let n = Rmsq.n t in
      let lo = if n = 0 then 0 else a mod (n + 2) in
      let hi = lo + (b mod (n + 2)) in
      let got = Rmsq.max_sum_in_range t ~lo ~hi in
      let want = Rmsq.range_ref t ~lo ~hi in
      (match (got, want) with
      | None, None -> true
      | Some g, Some w ->
          g.Rmsq.s_lo = w.Rmsq.s_lo && g.s_hi = w.s_hi
          && bits g.s_sum = bits w.s_sum
      | _ -> false)
      ||
      QCheck.Test.fail_reportf "range [%d,%d] diverged on n=%d" lo hi n)

let prop_matches_kadane =
  QCheck.Test.make ~count:500 ~name:"indexed range query = Kadane (int weights)"
    QCheck.(
      pair
        (make
           Gen.(
             list_size (int_range 1 50)
               (pair (map float_of_int (int_range (-30) 30))
                  (map float_of_int (int_range (-9) 9)))
             |> map Array.of_list))
        (pair small_nat small_nat))
    (fun (pts, (a, b)) ->
      let t = Rmsq.build pts in
      let n = Rmsq.n t in
      let lo = a mod n in
      let hi = lo + (b mod (n - lo)) in
      match Rmsq.max_sum_in_range t ~lo ~hi with
      | None -> QCheck.Test.fail_report "non-empty range answered None"
      | Some g ->
          bits g.Rmsq.s_sum = bits (kadane t ~lo ~hi)
          || QCheck.Test.fail_reportf "Kadane=%g index=%g on [%d,%d]"
               (kadane t ~lo ~hi) g.s_sum lo hi)

let prop_coords =
  QCheck.Test.make ~count:300 ~name:"coordinate-range query = index-range query"
    QCheck.(pair pts_arb (pair (float_range (-25.) 25.) (float_range 0. 20.)))
    (fun (pts, (lo, w)) ->
      let t = Rmsq.build pts in
      let hi = lo +. w in
      let n = Rmsq.n t in
      (* reference: the contiguous run of sorted elements inside [lo,hi] *)
      let i = ref 0 in
      while !i < n && Rmsq.coord t !i < lo do
        incr i
      done;
      let j = ref (n - 1) in
      while !j >= 0 && Rmsq.coord t !j > hi do
        decr j
      done;
      let got = Rmsq.max_sum_in_coords t ~lo ~hi in
      let want =
        if !i > !j then None else Rmsq.max_sum_in_range t ~lo:!i ~hi:!j
      in
      match (got, want) with
      | None, None -> true
      | Some g, Some w -> g.Rmsq.s_lo = w.Rmsq.s_lo && g.s_hi = w.s_hi
      | _ -> false)

let prop_top_is_full_range =
  QCheck.Test.make ~count:300 ~name:"top_segment = full-range query"
    pts_arb
    (fun pts ->
      let t = Rmsq.build pts in
      let top = Rmsq.top_segment t in
      let full = Rmsq.max_sum_in_range t ~lo:0 ~hi:(Rmsq.n t - 1) in
      match (top, full) with
      | None, None -> Rmsq.n t = 0
      | Some a, Some b ->
          a.Rmsq.s_lo = b.Rmsq.s_lo && a.s_hi = b.s_hi
          && bits a.s_sum = bits b.s_sum
      | _ -> false)

let prop_compiled_interval =
  QCheck.Test.make ~count:200 ~name:"compiled len = Interval1d sweep (bitwise)"
    QCheck.(pair pts_arb (float_range 0. 15.))
    (fun (pts, len) ->
      let t = Rmsq.build ~lens:[| len |] pts in
      let sweep = Interval1d.max_sum ~len pts in
      match Rmsq.interval t ~len with
      | None -> QCheck.Test.fail_report "compiled len not found"
      | Some p ->
          bits p.Interval1d.value = bits sweep.Interval1d.value
          && bits p.lo = bits sweep.lo
          && Rmsq.interval t ~len:(len +. 1e9) = None
          && bits (Rmsq.interval_sweep t ~len).Interval1d.value
             = bits sweep.value)

(* ------------------------------------------------------------------ *)
(* Edge families *)

let test_all_negative () =
  let pts = [| (0., -5.); (1., -1.); (2., -3.); (3., -1.); (4., -4.) |] in
  let t = Rmsq.build pts in
  (* best segment of an all-negative array is a single maximal element;
     tie broken towards the smaller index *)
  check_seg "all-negative top"
    (Some { Rmsq.s_lo = 1; s_hi = 1; s_sum = -1. })
    (Rmsq.top_segment t);
  check_seg "all-negative subrange"
    (Some { Rmsq.s_lo = 2; s_hi = 2; s_sum = -3. })
    (Rmsq.max_sum_in_range t ~lo:2 ~hi:2)

let test_all_zero () =
  let t = Rmsq.build (Array.init 8 (fun i -> (float_of_int i, 0.))) in
  (* every segment sums to 0; the total order picks the leftmost,
     shortest one *)
  check_seg "all-zero top"
    (Some { Rmsq.s_lo = 0; s_hi = 0; s_sum = 0. })
    (Rmsq.top_segment t);
  check_seg "all-zero subrange"
    (Some { Rmsq.s_lo = 3; s_hi = 3; s_sum = 0. })
    (Rmsq.max_sum_in_range t ~lo:3 ~hi:6)

let test_single_and_empty () =
  let t1 = Rmsq.build [| (7., -2.5) |] in
  check_seg "single element"
    (Some { Rmsq.s_lo = 0; s_hi = 0; s_sum = -2.5 })
    (Rmsq.top_segment t1);
  let t0 = Rmsq.build [||] in
  Alcotest.(check int) "empty n" 0 (Rmsq.n t0);
  check_seg "empty top" None (Rmsq.top_segment t0);
  check_seg "empty range" None (Rmsq.max_sum_in_range t0 ~lo:0 ~hi:5);
  check_seg "inverted range" None (Rmsq.max_sum_in_range t1 ~lo:3 ~hi:1);
  check_seg "coords miss" None (Rmsq.max_sum_in_coords t1 ~lo:8. ~hi:9.)

let test_nan_rejection () =
  let bad = [ [| (nan, 1.) |]; [| (0., nan) |]; [| (infinity, 1.) |] ] in
  List.iter
    (fun pts ->
      match Rmsq.build_checked pts with
      | Error (Guard.Invalid_input { field = "points"; _ }) -> ()
      | Error _ -> Alcotest.fail "wrong field"
      | Ok _ -> Alcotest.fail "NaN accepted")
    bad;
  (match Rmsq.build_checked ~lens:[| nan |] [| (0., 1.) |] with
  | Error (Guard.Invalid_input { field = "lens"; _ }) -> ()
  | _ -> Alcotest.fail "NaN len accepted");
  match Rmsq.build_checked ~lens:[| -1. |] [| (0., 1.) |] with
  | Error (Guard.Invalid_input { field = "lens"; _ }) -> ()
  | _ -> Alcotest.fail "negative len accepted"

let test_size_accounting () =
  let t = Rmsq.build (Array.init 1000 (fun i -> (float_of_int i, 1.))) in
  let bpp = Rmsq.bits_per_point t in
  Alcotest.(check bool) "bits/point positive and finite"
    true
    (Float.is_finite bpp && bpp > 0.);
  (* 3 float columns (~24 B) + 4 int32 columns over 2*2^ceil(lg n)
     nodes (~66 B at n=1000): well under 1 KiB/point, sanity bound *)
  Alcotest.(check bool) "bits/point sane" true (bpp < 8192.)

(* ------------------------------------------------------------------ *)
(* Epoch swap *)

let test_epoch_linearizable () =
  let k = 24 in
  (* index s: s+1 points with weights that make the answer depend on s *)
  let mk s =
    Rmsq.build
      (Array.init (s + 1) (fun i ->
           (float_of_int i, if i = s then 100. +. float_of_int s else -1.)))
  in
  let indexes = Array.init k mk in
  let expected =
    Array.map
      (fun t ->
        match Rmsq.top_segment t with
        | Some s -> s
        | None -> Alcotest.fail "expected non-empty")
      indexes
  in
  let cell = Epoch.create () in
  let torn = Atomic.make false and non_monotone = Atomic.make false in
  let stop = Atomic.make false in
  let reader () =
    let last = ref 0 in
    while not (Atomic.get stop) do
      match Epoch.current cell with
      | None -> Domain.cpu_relax ()
      | Some e ->
          if e.Epoch.epoch < !last then Atomic.set non_monotone true;
          last := e.Epoch.epoch;
          let s = e.Epoch.built_seq in
          (* built_seq identifies which pre-published index this entry
             must be; any divergence means a torn/partial publish *)
          (match Rmsq.top_segment e.Epoch.index with
          | Some got
            when got.Rmsq.s_lo = expected.(s).Rmsq.s_lo
                 && got.s_hi = expected.(s).s_hi
                 && bits got.s_sum = bits expected.(s).s_sum ->
              ()
          | _ -> Atomic.set torn true);
          if Rmsq.n e.Epoch.index <> s + 1 then Atomic.set torn true
    done
  in
  let readers = Array.init 3 (fun _ -> Domain.spawn reader) in
  for s = 0 to k - 1 do
    ignore (Epoch.publish cell indexes.(s) ~built_seq:s);
    Unix.sleepf 0.002
  done;
  Atomic.set stop true;
  Array.iter Domain.join readers;
  Alcotest.(check bool) "no torn index observed" false (Atomic.get torn);
  Alcotest.(check bool) "epochs monotone per reader" false
    (Atomic.get non_monotone);
  match Epoch.current cell with
  | Some e ->
      Alcotest.(check int) "final epoch" k e.Epoch.epoch;
      Alcotest.(check int) "final built_seq" (k - 1) e.Epoch.built_seq
  | None -> Alcotest.fail "cell cold after publishes"

let test_staleness_bound () =
  let ops = ref 0 in
  let src =
    {
      Index_builder.src_seq = (fun () -> !ops);
      src_capture =
        (fun () -> (Maxrs.Dynamic.(state (create ~dim:1 ())), !ops))
    }
  in
  let cell = Epoch.create () in
  ops := 17;
  let e = Index_builder.build_once src cell in
  Alcotest.(check int) "built at current seq" 17 e.Epoch.built_seq;
  Alcotest.(check (option int)) "lag 0 right after build" (Some 0)
    (Epoch.lag cell ~now_seq:!ops);
  ops := 20;
  Alcotest.(check (option int)) "lag = ops since rebuild" (Some 3)
    (Epoch.lag cell ~now_seq:!ops);
  (* gauge export only records while stats are enabled *)
  Obs.with_enabled true (fun () ->
      ignore (Epoch.lag cell ~now_seq:!ops);
      Alcotest.(check int) "rmsq.lag_ops gauge tracks" 3
        (Obs.gauge_value (Obs.gauge "rmsq.lag_ops")))

(* A reader that loaded an entry reports that entry's lag, even when a
   newer entry is published before it answers: the served answer must
   not be credited with the newer index's freshness. *)
let test_lag_of_served_entry () =
  let cell = Epoch.create () in
  let index = Rmsq.build [| (0., 1.) |] in
  ignore (Epoch.publish cell index ~built_seq:10 : Epoch.entry);
  let served = Option.get (Epoch.current cell) in
  ignore (Epoch.publish cell index ~built_seq:15 : Epoch.entry);
  Alcotest.(check int) "served entry's lag" 5
    (Epoch.lag_of served ~now_seq:15);
  Alcotest.(check (option int)) "live entry's lag" (Some 0)
    (Epoch.lag cell ~now_seq:15)

(* A live builder over a real session: the published epoch converges to
   the store seq, answers match the sweep over the session state, and
   the lag never exceeds the ops applied since its build. *)
let test_builder_session () =
  let wal = Filename.temp_file "maxrs_query" ".wal" in
  Sys.remove wal;
  (match Session.open_ ~wal ~dim:1 ~radius:2. ~snapshot_every:0 () with
  | Error e -> Alcotest.fail e
  | Ok s ->
      let m = Mutex.create () in
      let locked f =
        Mutex.lock m;
        Fun.protect ~finally:(fun () -> Mutex.unlock m) f
      in
      let bare = Index_builder.source_of_session s in
      let src =
        {
          Index_builder.src_seq =
            (fun () -> locked (fun () -> bare.Index_builder.src_seq ()));
          src_capture =
            (fun () -> locked (fun () -> bare.Index_builder.src_capture ()));
        }
      in
      let cell = Epoch.create () in
      let b = Index_builder.start src cell in
      let n = 200 in
      for i = 0 to n - 1 do
        ignore
          (locked (fun () ->
               Session.insert s ~weight:(float_of_int (1 + (i mod 7)))
                 [| float_of_int (i mod 50) |]))
      done;
      (* convergence: builder catches up to seq = n (bounded wait) *)
      let deadline = Unix.gettimeofday () +. 10. in
      let caught_up () =
        match Epoch.current cell with
        | Some e -> e.Epoch.built_seq = n
        | None -> false
      in
      while (not (caught_up ())) && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.005
      done;
      Index_builder.stop b;
      Alcotest.(check bool) "builder caught up" true (caught_up ());
      Alcotest.(check (option int)) "lag 0 when caught up" (Some 0)
        (Epoch.lag cell ~now_seq:(Session.seq s));
      (match Epoch.current cell with
      | None -> Alcotest.fail "no epoch"
      | Some e ->
          let t = e.Epoch.index in
          Alcotest.(check int) "index holds all points" n (Rmsq.n t);
          (* radius-2 session: of_state must restore user units *)
          Alcotest.(check bool) "coords in user units" true
            (Rmsq.coord t (Rmsq.n t - 1) <= 49.);
          let fresh =
            Rmsq.build
              (Array.init n (fun i ->
                   (float_of_int (i mod 50), float_of_int (1 + (i mod 7)))))
          in
          check_seg "matches fresh index over same points"
            (Rmsq.top_segment fresh) (Rmsq.top_segment t));
      Session.close s);
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".wal" || String.length f > 0 then
        try Sys.remove (Filename.concat (Filename.dirname wal) f)
        with Sys_error _ -> ())
    (Array.of_list
       (List.filter
          (fun f ->
            String.length f >= String.length (Filename.basename wal)
            && String.sub f 0 (String.length (Filename.basename wal))
               = Filename.basename wal)
          (Array.to_list (Sys.readdir (Filename.dirname wal)))))

(* Index compiled from a crash-recovered snapshot answers bit-identically
   to the sweep over the same points — the CI query-smoke property. *)
let test_of_snapshot () =
  let wal = Filename.temp_file "maxrs_snapq" ".wal" in
  Sys.remove wal;
  (match Session.open_ ~wal ~dim:1 ~snapshot_every:0 () with
  | Error e -> Alcotest.fail e
  | Ok s ->
      for i = 0 to 99 do
        ignore
          (Session.insert s
             ~weight:(float_of_int (1 + (i mod 5)))
             [| float_of_int (i * 7 mod 100) |])
      done;
      Session.snapshot_now s;
      Session.close s);
  (* reopen = crash recovery path; then compile from the snapshot *)
  (match Session.open_ ~wal () with
  | Error e -> Alcotest.fail e
  | Ok s ->
      (match Index_builder.of_snapshot ~lens:[| 10. |] ~wal () with
      | Error e -> Alcotest.fail e
      | Ok entry ->
          Alcotest.(check int) "snapshot seq" 100 entry.Epoch.built_seq;
          let t = entry.Epoch.index in
          let pts =
            Array.init (Rmsq.n t) (fun i -> (Rmsq.coord t i, Rmsq.weight t i))
          in
          let sweep = Interval1d.max_sum ~len:10. pts in
          (match Rmsq.interval t ~len:10. with
          | None -> Alcotest.fail "compiled len missing"
          | Some p ->
              Alcotest.(check bool) "bit-identical to sweep" true
                (bits p.Interval1d.value = bits sweep.Interval1d.value));
          check_seg "range query = reference on recovered points"
            (Rmsq.range_ref t ~lo:7 ~hi:88)
            (Rmsq.max_sum_in_range t ~lo:7 ~hi:88));
      Session.close s);
  Array.iter
    (fun f ->
      try Sys.remove (Filename.concat (Filename.dirname wal) f)
      with Sys_error _ -> ())
    (Array.of_list
       (List.filter
          (fun f ->
            String.length f >= String.length (Filename.basename wal)
            && String.sub f 0 (String.length (Filename.basename wal))
               = Filename.basename wal)
          (Array.to_list (Sys.readdir (Filename.dirname wal)))))

let qsuite name tests =
  (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "query"
    [
      qsuite "differential"
        [
          prop_matches_reference;
          prop_matches_kadane;
          prop_coords;
          prop_top_is_full_range;
          prop_compiled_interval;
        ];
      ( "edges",
        [
          Alcotest.test_case "all-negative" `Quick test_all_negative;
          Alcotest.test_case "all-zero" `Quick test_all_zero;
          Alcotest.test_case "single and empty" `Quick test_single_and_empty;
          Alcotest.test_case "NaN rejection" `Quick test_nan_rejection;
          Alcotest.test_case "size accounting" `Quick test_size_accounting;
        ] );
      ( "epoch",
        [
          Alcotest.test_case "swap linearizability" `Quick
            test_epoch_linearizable;
          Alcotest.test_case "staleness bound" `Quick test_staleness_bound;
          Alcotest.test_case "lag of the served entry" `Quick
            test_lag_of_served_entry;
          Alcotest.test_case "background builder over session" `Quick
            test_builder_session;
          Alcotest.test_case "compile from recovered snapshot" `Quick
            test_of_snapshot;
        ] );
    ]
