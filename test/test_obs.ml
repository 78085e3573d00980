(* Observability layer: counter/gauge/histogram/span semantics, and
   counter-shape assertions checking that instrumented solvers do the
   amount of work their theorems predict (machine-independent
   complexity tests). *)

module Obs = Maxrs_obs.Obs
module Disk2d = Maxrs_sweep.Disk2d
module Interval1d = Maxrs_sweep.Interval1d
module Rng = Maxrs_geom.Rng
module Output_sensitive = Maxrs.Output_sensitive

let with_stats f = Obs.with_enabled true f

(* Counter deltas around [f], via snapshot diff: the global registry is
   shared across this executable's tests, so absolute values are
   meaningless — deltas are exact. *)
let delta_of names f =
  with_stats (fun () ->
      let base = Obs.Snapshot.capture () in
      let r = f () in
      let d = Obs.Snapshot.diff (Obs.Snapshot.capture ()) ~base in
      (r, List.map (fun n -> Obs.Snapshot.counter d n) names))

(* ------------------------------------------------------------------ *)
(* Core semantics *)

let test_counter_basics () =
  let c = Obs.counter "test.basic" in
  Alcotest.(check bool)
    "idempotent registration" true
    (Obs.counter "test.basic" == c);
  with_stats (fun () ->
      let v0 = Obs.value c in
      Obs.incr c;
      Obs.add c 41;
      Alcotest.(check int) "incr + add" (v0 + 42) (Obs.value c))

let test_disabled_noop () =
  let c = Obs.counter "test.noop" in
  Obs.with_enabled false (fun () ->
      let v0 = Obs.value c in
      Obs.incr c;
      Obs.add c 1000;
      Alcotest.(check int) "counter untouched" v0 (Obs.value c);
      let h = Obs.histogram "test.noop.h" in
      let hc = Obs.histogram_count h in
      Obs.observe h 7;
      Alcotest.(check int) "histogram untouched" hc (Obs.histogram_count h);
      (* A disabled span is exactly [f ()]: no frame is pushed. *)
      Obs.with_span "test.noop.span" (fun () ->
          Alcotest.(check int) "no frame pushed" 0 (Obs.span_depth ()));
      let snap = Obs.Snapshot.capture () in
      Alcotest.(check bool)
        "no span recorded" true
        (Obs.Snapshot.span snap "test.noop.span" = None))

let test_with_enabled_restores () =
  Obs.with_enabled false (fun () ->
      Obs.with_enabled true (fun () ->
          Alcotest.(check bool) "inner on" true (Obs.enabled ()));
      Alcotest.(check bool) "outer restored" false (Obs.enabled ()));
  (* ... also on exceptions. *)
  Obs.with_enabled false (fun () ->
      (try Obs.with_enabled true (fun () -> failwith "boom")
       with Failure _ -> ());
      Alcotest.(check bool) "restored after raise" false (Obs.enabled ()))

let test_gauge () =
  with_stats (fun () ->
      let g = Obs.gauge "test.gauge" in
      Obs.set_gauge g 5;
      Obs.set_gauge g 12;
      Obs.set_gauge g 3;
      Alcotest.(check int) "last" 3 (Obs.gauge_value g);
      Alcotest.(check int) "max" 12 (Obs.gauge_max g))

let test_histogram () =
  with_stats (fun () ->
      let h = Obs.histogram "test.histo" in
      let c0 = Obs.histogram_count h and s0 = Obs.histogram_sum h in
      List.iter (Obs.observe h) [ 1; 2; 3; 1024; 0 ];
      Alcotest.(check int) "count" (c0 + 5) (Obs.histogram_count h);
      Alcotest.(check int) "sum" (s0 + 1030) (Obs.histogram_sum h);
      let snap = Obs.Snapshot.capture () in
      let histo = List.assoc "test.histo" snap.Obs.Snapshot.histograms in
      Alcotest.(check bool)
        "max observed" true
        (histo.Obs.Snapshot.hs_max >= 1024))

let test_span_nesting_and_deltas () =
  let c = Obs.counter "test.span.ops" in
  with_stats (fun () ->
      let base = Obs.Snapshot.capture () in
      Obs.with_span "test.outer" (fun () ->
          Alcotest.(check int) "depth 1" 1 (Obs.span_depth ());
          Obs.incr c;
          Obs.with_span "test.inner" (fun () ->
              Alcotest.(check int) "depth 2" 2 (Obs.span_depth ());
              Obs.add c 10));
      Alcotest.(check int) "depth 0 after" 0 (Obs.span_depth ());
      let d = Obs.Snapshot.diff (Obs.Snapshot.capture ()) ~base in
      let span name =
        match Obs.Snapshot.span d name with
        | Some s -> s
        | None -> Alcotest.failf "span %s missing" name
      in
      let outer = span "test.outer" and inner = span "test.inner" in
      Alcotest.(check int) "outer ran once" 1 outer.Obs.Snapshot.sp_count;
      Alcotest.(check int) "inner ran once" 1 inner.Obs.Snapshot.sp_count;
      let delta s =
        Option.value ~default:0
          (List.assoc_opt "test.span.ops" s.Obs.Snapshot.sp_counters)
      in
      (* Inner work is attributed to the enclosing span too. *)
      Alcotest.(check int) "outer sees all ops" 11 (delta outer);
      Alcotest.(check int) "inner sees its own" 10 (delta inner);
      Alcotest.(check bool)
        "outer time >= inner time" true
        (outer.Obs.Snapshot.sp_total_ns >= inner.Obs.Snapshot.sp_total_ns))

let test_span_exception_safety () =
  with_stats (fun () ->
      (try Obs.with_span "test.raises" (fun () -> failwith "boom")
       with Failure _ -> ());
      Alcotest.(check int) "stack unwound" 0 (Obs.span_depth ());
      let snap = Obs.Snapshot.capture () in
      match Obs.Snapshot.span snap "test.raises" with
      | Some s ->
          Alcotest.(check bool)
            "span still recorded" true
            (s.Obs.Snapshot.sp_count >= 1)
      | None -> Alcotest.fail "span lost on exception")

(* A span's minor words are exact even when no minor collection falls
   inside it: 400 blocks of 100 words, from an empty minor heap, fit in
   it with room to spare. OCaml 5.1's [Gc.quick_stat] reads such a
   window as 0 words. *)
let test_span_minor_words_exact () =
  with_stats (fun () ->
      let base = Obs.Snapshot.capture () in
      Gc.minor ();
      let collections () = (Gc.quick_stat ()).Gc.minor_collections in
      let c0 = collections () in
      Obs.with_span "test.alloc" (fun () ->
          for _ = 1 to 400 do
            ignore (Sys.opaque_identity (Array.make 99 0))
          done);
      Alcotest.(check int)
        "no minor collection in the window" c0 (collections ());
      let d = Obs.Snapshot.diff (Obs.Snapshot.capture ()) ~base in
      match Obs.Snapshot.span d "test.alloc" with
      | None -> Alcotest.fail "span missing"
      | Some s ->
          let words = s.Obs.Snapshot.sp_gc.Obs.Snapshot.sg_minor_words in
          (* The frame the span pushes is counted in it, nothing else. *)
          Alcotest.(check bool)
            (Printf.sprintf "40,000 words reported (%.0f)" words)
            true
            (words >= 40_000. && words <= 40_100.))

let test_reset () =
  let c = Obs.counter "test.reset" in
  with_stats (fun () ->
      Obs.add c 7;
      Obs.with_span "test.reset.span" (fun () -> ());
      Obs.reset ();
      Alcotest.(check int) "counter zeroed" 0 (Obs.value c);
      let snap = Obs.Snapshot.capture () in
      Alcotest.(check bool)
        "registration survives reset" true
        (List.mem_assoc "test.reset" snap.Obs.Snapshot.counters);
      Alcotest.(check bool)
        "spans dropped" true
        (Obs.Snapshot.span snap "test.reset.span" = None))

let test_snapshot_json () =
  with_stats (fun () ->
      Obs.incr (Obs.counter "test.json");
      let json = Obs.Snapshot.to_json (Obs.Snapshot.capture ()) in
      let contains sub =
        let n = String.length sub and m = String.length json in
        let rec go i =
          i + n <= m && (String.sub json i n = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool)
        "schema marker" true
        (contains "\"schema\":\"maxrs.stats/1\"");
      Alcotest.(check bool) "counters section" true (contains "\"counters\":{");
      Alcotest.(check bool) "test key present" true (contains "\"test.json\":");
      (* Balanced braces is a cheap well-formedness proxy without a JSON
         parser; the CLI golden test checks the schema properly. *)
      let depth = ref 0 in
      String.iter
        (fun ch ->
          if ch = '{' then incr depth
          else if ch = '}' then decr depth)
        json;
      Alcotest.(check int) "balanced braces" 0 !depth)

(* ------------------------------------------------------------------ *)
(* Counter shapes: the solvers do the work their theorems predict. *)

(* Exact disk sweep: every pair of unit circles with centers closer
   than 2r intersects in an arc, contributing exactly two events per
   boundary circle — 2n(n-1) events in total when the point set fits in
   a ball of diameter < 2r. The Theta(n^2) shape is exact. *)
let test_disk2d_quadratic_events () =
  let mk n =
    let rng = Rng.create (97 + n) in
    Array.init n (fun _ ->
        (Rng.uniform rng 0. 0.9, Rng.uniform rng 0. 0.9, 1.))
  in
  let events n =
    let _, d = delta_of [ "sweep.events" ] (fun () ->
        ignore (Disk2d.max_weight ~radius:1. (mk n)))
    in
    List.hd d
  in
  Alcotest.(check int) "n=40: exactly 2n(n-1)" (2 * 40 * 39) (events 40);
  Alcotest.(check int) "n=80: exactly 2n(n-1)" (2 * 80 * 79) (events 80)

(* Batched 1-D: each of the m queries merges exactly 2n endpoint
   events. *)
let test_interval1d_event_count () =
  let rng = Rng.create 4242 in
  let n = 500 and m = 7 in
  let pts =
    Array.init n (fun _ -> (Rng.uniform rng 0. 100., Rng.uniform rng 0. 2.))
  in
  let lens = Array.init m (fun i -> 1. +. float_of_int i) in
  let _, d =
    delta_of
      [ "sweep.interval1d.queries"; "sweep.interval1d.events" ]
      (fun () -> ignore (Interval1d.batched ~lens pts))
  in
  (match d with
  | [ q; e ] ->
      Alcotest.(check int) "m queries" m q;
      Alcotest.(check int) "2nm events" (2 * n * m) e
  | _ -> assert false)

(* Output-sensitive solver: on fixed-density instances (extent scales
   with sqrt n, so opt stays O(1)) the sweep-event count stays within a
   constant factor of n * opt — the Theorem 4.6 shape. The constant
   absorbs the shift count and the per-cell bucketing overhead; 200 is
   an order of magnitude above the observed ~30. *)
let test_output_sensitive_bounded () =
  let run n =
    let rng = Rng.create (23 * n) in
    let extent = 1.5 *. sqrt (float_of_int n) in
    let pts =
      Array.init n (fun _ ->
          (Rng.uniform rng 0. extent, Rng.uniform rng 0. extent))
    in
    let colors = Array.init n (fun i -> i mod 50) in
    let r, d =
      delta_of [ "os.sweep_events" ] (fun () ->
          Output_sensitive.solve ~max_shifts:6 pts ~colors)
    in
    let opt = Int.max 1 r.Output_sensitive.depth in
    let events = List.hd d in
    Alcotest.(check bool)
      (Printf.sprintf "n=%d: events %d <= 200 * n * opt (opt=%d)" n events
         opt)
      true
      (events <= 200 * n * opt);
    Alcotest.(check bool)
      (Printf.sprintf "n=%d: solver did sweep work" n)
      true (events > 0)
  in
  run 1000;
  run 4000

let () =
  Alcotest.run "obs"
    [
      ( "semantics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
          Alcotest.test_case "with_enabled restores" `Quick
            test_with_enabled_restores;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "span nesting + deltas" `Quick
            test_span_nesting_and_deltas;
          Alcotest.test_case "span exception safety" `Quick
            test_span_exception_safety;
          Alcotest.test_case "span minor words are exact" `Quick
            test_span_minor_words_exact;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "snapshot json" `Quick test_snapshot_json;
        ] );
      ( "counter shapes",
        [
          Alcotest.test_case "disk2d is Theta(n^2)" `Quick
            test_disk2d_quadratic_events;
          Alcotest.test_case "interval1d is 2nm" `Quick
            test_interval1d_event_count;
          Alcotest.test_case "output-sensitive is O(n opt)" `Quick
            test_output_sensitive_bounded;
        ] );
    ]
