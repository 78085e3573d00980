(* Tests for the extension modules: kd-tree substrate, exact d-box MaxRS,
   colored 1-D stabbing / colored rectangle MaxRS (the paper's open
   problem #1 pipeline), verification helpers, point-file IO, and the
   boundary rule's degenerate inputs. *)

module Point = Maxrs_geom.Point
module Rng = Maxrs_geom.Rng
module Ball = Maxrs_geom.Ball
module Box = Maxrs_geom.Box
module Circle = Maxrs_geom.Circle
module Closed = Maxrs_geom.Closed
module Kdtree = Maxrs_geom.Kdtree
module Interval1d = Maxrs_sweep.Interval1d
module Rect2d = Maxrs_sweep.Rect2d
module Boxd = Maxrs_sweep.Boxd
module Colored_interval1d = Maxrs_sweep.Colored_interval1d
module Colored_rect2d = Maxrs_sweep.Colored_rect2d
module Disk2d = Maxrs_sweep.Disk2d
module Brute = Maxrs_sweep.Brute
module Approx_colored_rect = Maxrs.Approx_colored_rect
module Output_sensitive = Maxrs.Output_sensitive
module Verify = Maxrs.Verify
module Points_io = Maxrs.Points_io
module Workload = Maxrs.Workload
module Trace = Maxrs.Trace
module Config = Maxrs.Config
module Dynamic = Maxrs.Dynamic
module Static = Maxrs.Static
module Grid_baseline = Maxrs.Grid_baseline
module Colored_stream = Maxrs.Colored_stream
module Colored_disk2d = Maxrs_sweep.Colored_disk2d

let check_float = Alcotest.(check (float 1e-9))

let random_points rng ~dim ~n ~extent =
  Array.init n (fun _ -> Array.init dim (fun _ -> Rng.uniform rng 0. extent))

(* ------------------------------------------------------------------ *)
(* Kdtree *)

let test_kdtree_basic () =
  let pts = [| [| 0.; 0. |]; [| 1.; 1. |]; [| 5.; 5. |]; [| 0.5; 0.2 |] |] in
  let t = Kdtree.build pts in
  Alcotest.(check int) "size" 4 (Kdtree.size t);
  Alcotest.(check int) "dim" 2 (Kdtree.dim t);
  Alcotest.(check int) "ball count" 2
    (Kdtree.count_in_ball t (Ball.unit [| 0.; 0. |]));
  Alcotest.(check int) "everything" 4
    (Kdtree.count_in_ball t (Ball.make [| 2.; 2. |] 10.));
  Alcotest.(check int) "nothing" 0
    (Kdtree.count_in_ball t (Ball.unit [| 50.; 50. |]));
  let box = Box.make [| 0.; 0. |] [| 1.; 1. |] in
  Alcotest.(check int) "box count" 3 (Kdtree.count_in_box t box)

let test_kdtree_nearest () =
  let pts = [| [| 0.; 0. |]; [| 3.; 0. |]; [| 0.; 4. |] |] in
  let t = Kdtree.build pts in
  let i, p, d = Kdtree.nearest t [| 2.9; 0.2 |] in
  Alcotest.(check int) "index" 1 i;
  Alcotest.(check bool) "point" true (Point.equal p [| 3.; 0. |]);
  Alcotest.(check bool) "distance" true (Float.abs (d -. sqrt 0.05) < 1e-9)

let test_kdtree_duplicates () =
  let pts = Array.make 40 [| 1.; 2.; 3. |] in
  let t = Kdtree.build pts in
  Alcotest.(check int) "all coincident found" 40
    (Kdtree.count_in_ball t (Ball.unit [| 1.; 2.; 3. |]))

let prop_kdtree_ball_count =
  QCheck.Test.make ~count:200 ~name:"kdtree ball count = linear scan"
    QCheck.(
      triple (int_range 1 60) (int_range 1 4) (float_range 0.3 3.))
    (fun (n, dim, radius) ->
      let rng = Rng.create (n + (dim * 1000)) in
      let pts = random_points rng ~dim ~n ~extent:4. in
      let t = Kdtree.build pts in
      let q = Array.init dim (fun _ -> Rng.uniform rng 0. 4.) in
      let ball = Ball.make q radius in
      let expected =
        Array.fold_left
          (fun acc p -> if Ball.contains ball p then acc + 1 else acc)
          0 pts
      in
      Kdtree.count_in_ball t ball = expected)

let prop_kdtree_nearest =
  QCheck.Test.make ~count:200 ~name:"kdtree nearest = linear scan"
    QCheck.(pair (int_range 1 60) (int_range 1 4))
    (fun (n, dim) ->
      let rng = Rng.create (31 * (n + dim)) in
      let pts = random_points rng ~dim ~n ~extent:4. in
      let t = Kdtree.build pts in
      let q = Array.init dim (fun _ -> Rng.uniform rng 0. 4.) in
      let _, _, d = Kdtree.nearest t q in
      let expected =
        Array.fold_left (fun acc p -> Float.min acc (Point.dist p q)) infinity pts
      in
      Float.abs (d -. expected) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Boxd *)

let test_boxd_1d_matches_interval () =
  let rng = Rng.create 5 in
  for _ = 1 to 30 do
    let n = 1 + Rng.int rng 25 in
    let pts =
      Array.init n (fun _ -> ([| Rng.uniform rng 0. 10. |], Rng.uniform rng 0. 3.))
    in
    let w = Rng.uniform rng 0.3 3. in
    let r = Boxd.max_sum ~widths:[| w |] pts in
    let i =
      Interval1d.max_sum ~len:w (Array.map (fun (p, wt) -> (p.(0), wt)) pts)
    in
    check_float "1d = interval sweep" i.Interval1d.value r.Boxd.value
  done

let prop_boxd_2d_matches_rect =
  QCheck.Test.make ~count:150 ~name:"Boxd d=2 = rectangle sweep"
    QCheck.(
      triple (float_range 0.5 3.) (float_range 0.5 3.)
        (list_of_size (Gen.int_range 1 15)
           (triple (float_range 0. 6.) (float_range 0. 6.) (float_range 0. 4.))))
    (fun (w, h, pts) ->
      let pts2 =
        Array.of_list (List.map (fun (x, y, wt) -> ([| x; y |], wt)) pts)
      in
      let pts3 = Array.of_list pts in
      let a = Boxd.max_sum ~widths:[| w; h |] pts2 in
      let b = Rect2d.max_sum ~width:w ~height:h pts3 in
      Float.abs (a.Boxd.value -. b.Rect2d.value) < 1e-9)

let prop_boxd_3d_matches_brute =
  QCheck.Test.make ~count:60 ~name:"Boxd d=3 = candidate brute force"
    QCheck.(
      list_of_size (Gen.int_range 1 8)
        (triple (float_range 0. 3.) (float_range 0. 3.) (float_range 0. 3.)))
    (fun raw ->
      let pts =
        Array.of_list (List.map (fun (x, y, z) -> ([| x; y; z |], 1.)) raw)
      in
      let widths = [| 1.; 1.2; 0.8 |] in
      let a = Boxd.max_sum ~widths pts in
      (* brute force: candidate centers put each coordinate at some
         point's lower-edge binding position *)
      let best = ref 0. in
      Array.iter
        (fun (p, _) ->
          Array.iter
            (fun (q, _) ->
              Array.iter
                (fun (r, _) ->
                  let c =
                    [|
                      p.(0) +. (widths.(0) /. 2.);
                      q.(1) +. (widths.(1) /. 2.);
                      r.(2) +. (widths.(2) /. 2.);
                    |]
                  in
                  best := Float.max !best (Boxd.depth_at ~widths pts c))
                pts)
            pts)
        pts;
      Float.abs (a.Boxd.value -. !best) < 1e-9)

let test_boxd_planted () =
  let rng = Rng.create 9 in
  let pts, center, opt = Workload.planted rng ~dim:3 ~n:30 ~opt:12 in
  let r = Boxd.max_sum ~widths:[| 2.; 2.; 2. |] pts in
  Alcotest.(check bool) "recovers at least the planted cluster" true
    (r.Boxd.value >= opt);
  Alcotest.(check bool) "achievable" true
    (Boxd.depth_at ~widths:[| 2.; 2.; 2. |] pts r.Boxd.point
    >= r.Boxd.value -. 1e-9);
  ignore center

let test_boxd_point_achieves_value () =
  let rng = Rng.create 13 in
  for _ = 1 to 20 do
    let n = 1 + Rng.int rng 20 in
    let pts =
      Array.init n (fun _ ->
          ( [| Rng.uniform rng 0. 5.; Rng.uniform rng 0. 5.; Rng.uniform rng 0. 5. |],
            Rng.uniform rng 0. 2. ))
    in
    let widths = [| 1.5; 1.; 2. |] in
    let r = Boxd.max_sum ~widths pts in
    check_float "achieved" r.Boxd.value (Boxd.depth_at ~widths pts r.Boxd.point)
  done

(* ------------------------------------------------------------------ *)
(* Colored_interval1d *)

let test_colored_stab_basic () =
  let ivls =
    [| ((0., 2.), 1); ((1., 3.), 2); ((1.5, 1.8), 1); ((10., 11.), 3) |]
  in
  let _, depth = Colored_interval1d.max_stab ivls in
  Alcotest.(check int) "two colors overlap" 2 depth

let test_colored_stab_same_color_once () =
  let ivls = [| ((0., 1.), 7); ((0.2, 0.8), 7); ((0.4, 0.6), 7) |] in
  let _, depth = Colored_interval1d.max_stab ivls in
  Alcotest.(check int) "one color" 1 depth

let test_color_unions_disjoint () =
  let ivls = [| ((0., 1.), 1); ((0.5, 2.), 1); ((3., 4.), 1) |] in
  let unions = Colored_interval1d.color_unions ivls in
  Alcotest.(check int) "two segments" 2 (List.length unions);
  let total =
    List.fold_left (fun acc (lo, hi) -> acc +. (hi -. lo)) 0. unions
  in
  check_float "total measure" 3. total

let prop_colored_stab_matches_brute =
  QCheck.Test.make ~count:300 ~name:"colored stabbing = brute force"
    QCheck.(
      list_of_size (Gen.int_range 1 20)
        (triple (float_range 0. 5.) (float_range 0. 2.) (int_range 0 4)))
    (fun raw ->
      let ivls =
        Array.of_list (List.map (fun (lo, len, c) -> ((lo, lo +. len), c)) raw)
      in
      let _, depth = Colored_interval1d.max_stab ivls in
      (* brute: evaluate at every endpoint *)
      let eval x =
        let seen = Hashtbl.create 8 in
        Array.iter
          (fun ((lo, hi), c) ->
            if lo -. 1e-12 <= x && x <= hi +. 1e-12 then
              Hashtbl.replace seen c ())
          ivls;
        Hashtbl.length seen
      in
      let brute =
        Array.fold_left
          (fun acc ((lo, hi), _) -> Int.max acc (Int.max (eval lo) (eval hi)))
          0 ivls
      in
      depth = brute)

let prop_colored_stab_point_achieves =
  QCheck.Test.make ~count:300 ~name:"colored stabbing point achieves depth"
    QCheck.(
      list_of_size (Gen.int_range 1 20)
        (triple (float_range 0. 5.) (float_range 0. 2.) (int_range 0 4)))
    (fun raw ->
      let ivls =
        Array.of_list (List.map (fun (lo, len, c) -> ((lo, lo +. len), c)) raw)
      in
      let x, depth = Colored_interval1d.max_stab ivls in
      let seen = Hashtbl.create 8 in
      Array.iter
        (fun ((lo, hi), c) ->
          if lo -. 1e-9 <= x && x <= hi +. 1e-9 then Hashtbl.replace seen c ())
        ivls;
      Hashtbl.length seen >= depth)

(* ------------------------------------------------------------------ *)
(* Colored_rect2d *)

let brute_colored_rect ~width ~height centers ~colors =
  let hw = width /. 2. and hh = height /. 2. in
  let best = ref 0 in
  Array.iter
    (fun (px, _) ->
      Array.iter
        (fun (_, qy) ->
          let v =
            Colored_rect2d.colored_depth_at ~width ~height centers ~colors
              (px +. hw) (qy +. hh)
          in
          if v > !best then best := v)
        centers)
    centers;
  !best

let test_colored_rect_basic () =
  let centers = [| (0., 0.); (0.4, 0.3); (0.2, 0.1); (5., 5.) |] in
  let colors = [| 1; 2; 1; 3 |] in
  let r = Colored_rect2d.max_colored ~width:1. ~height:1. centers ~colors in
  Alcotest.(check int) "two colors" 2 r.Colored_rect2d.value

let prop_colored_rect_matches_brute =
  QCheck.Test.make ~count:200 ~name:"colored rectangle = brute force"
    QCheck.(
      list_of_size (Gen.int_range 1 14)
        (triple (float_range 0. 5.) (float_range 0. 5.) (int_range 0 4)))
    (fun raw ->
      let centers = Array.of_list (List.map (fun (x, y, _) -> (x, y)) raw) in
      let colors = Array.of_list (List.map (fun (_, _, c) -> c) raw) in
      let r =
        Colored_rect2d.max_colored ~width:1.3 ~height:0.9 centers ~colors
      in
      r.Colored_rect2d.value
      = brute_colored_rect ~width:1.3 ~height:0.9 centers ~colors)

let prop_colored_rect_point_achieves =
  QCheck.Test.make ~count:200 ~name:"colored rectangle point achieves value"
    QCheck.(
      list_of_size (Gen.int_range 1 14)
        (triple (float_range 0. 5.) (float_range 0. 5.) (int_range 0 4)))
    (fun raw ->
      let centers = Array.of_list (List.map (fun (x, y, _) -> (x, y)) raw) in
      let colors = Array.of_list (List.map (fun (_, _, c) -> c) raw) in
      let r = Colored_rect2d.max_colored ~width:1. ~height:1. centers ~colors in
      Colored_rect2d.colored_depth_at ~width:1. ~height:1. centers ~colors
        r.Colored_rect2d.x r.Colored_rect2d.y
      = r.Colored_rect2d.value)

(* ------------------------------------------------------------------ *)
(* Approx_colored_rect (open problem #1 pipeline) *)

let test_rect_estimate_bounds () =
  let rng = Rng.create 29 in
  for trial = 1 to 10 do
    let n = 10 + Rng.int rng 60 in
    let centers =
      Array.init n (fun _ -> (Rng.uniform rng 0. 6., Rng.uniform rng 0. 6.))
    in
    let colors = Array.init n (fun _ -> Rng.int rng 8) in
    let est =
      Approx_colored_rect.estimate_opt ~width:1. ~height:1. centers ~colors
    in
    let exact =
      (Colored_rect2d.max_colored ~width:1. ~height:1. centers ~colors)
        .Colored_rect2d.value
    in
    Alcotest.(check bool)
      (Printf.sprintf "trial %d: opt/4 <= est <= opt (%d vs %d)" trial est exact)
      true
      (4 * est >= exact && est <= exact)
  done

let test_approx_rect_small_exact () =
  let centers = [| (0., 0.); (0.3, 0.2); (9., 9.) |] in
  let colors = [| 0; 1; 2 |] in
  let r = Approx_colored_rect.solve centers ~colors in
  (match r.Approx_colored_rect.strategy with
  | Approx_colored_rect.Exact_small -> ()
  | Approx_colored_rect.Sampled _ -> Alcotest.fail "expected exact path");
  Alcotest.(check int) "depth" 2 r.Approx_colored_rect.depth

let test_approx_rect_sampling_near_optimal () =
  let rng = Rng.create 31 in
  let opt = 300 in
  let n = 400 in
  (* opt distinct colors stacked in one unit cell, the rest scattered *)
  let centers =
    Array.init n (fun i ->
        if i < opt then (Rng.uniform rng 0. 0.3, Rng.uniform rng 0. 0.3)
        else (10. +. Rng.uniform rng 0. 20., 10. +. Rng.uniform rng 0. 20.))
  in
  let colors = Array.init n Fun.id in
  let r = Approx_colored_rect.solve ~epsilon:0.25 centers ~colors in
  (match r.Approx_colored_rect.strategy with
  | Approx_colored_rect.Sampled { lambda; _ } ->
      Alcotest.(check bool) "lambda < 1" true (lambda < 1.)
  | Approx_colored_rect.Exact_small -> Alcotest.fail "expected sampling path");
  Alcotest.(check bool) "within (1-eps)" true
    (float_of_int r.Approx_colored_rect.depth >= 0.75 *. float_of_int opt);
  Alcotest.(check bool) "at most opt" true (r.Approx_colored_rect.depth <= opt)

let prop_approx_rect_sound =
  QCheck.Test.make ~count:100 ~name:"approx rect depth is achievable and <= opt"
    QCheck.(
      list_of_size (Gen.int_range 1 18)
        (triple (float_range 0. 5.) (float_range 0. 5.) (int_range 0 5)))
    (fun raw ->
      let centers = Array.of_list (List.map (fun (x, y, _) -> (x, y)) raw) in
      let colors = Array.of_list (List.map (fun (_, _, c) -> c) raw) in
      let r = Approx_colored_rect.solve centers ~colors in
      let exact =
        (Colored_rect2d.max_colored ~width:1. ~height:1. centers ~colors)
          .Colored_rect2d.value
      in
      r.Approx_colored_rect.depth <= exact
      && Colored_rect2d.colored_depth_at ~width:1. ~height:1. centers ~colors
           r.Approx_colored_rect.x r.Approx_colored_rect.y
         = r.Approx_colored_rect.depth)

(* ------------------------------------------------------------------ *)
(* Verify *)

let test_verify_depths () =
  let pts = [| ([| 0.; 0. |], 2.); ([| 0.5; 0. |], 3.); ([| 5.; 5. |], 7.) |] in
  check_float "depth at origin" 5. (Verify.weighted_depth pts [| 0.; 0. |]);
  check_float "depth far" 7. (Verify.weighted_depth pts [| 5.; 5. |]);
  check_float "radius widens" 12.
    (Verify.weighted_depth ~radius:10. pts [| 1.; 1. |]);
  Alcotest.(check bool) "achieved" true
    (Verify.check_achieved pts [| 0.; 0. |] 5.);
  Alcotest.(check bool) "not achieved" false
    (Verify.check_achieved pts [| 0.; 0. |] 5.1)

let test_verify_evaluator_matches_scan () =
  let rng = Rng.create 37 in
  let pts =
    Array.init 100 (fun _ ->
        ( [| Rng.uniform rng 0. 5.; Rng.uniform rng 0. 5. |],
          Rng.uniform rng 0. 2. ))
  in
  let e = Verify.evaluator ~radius:1.2 pts in
  for _ = 1 to 50 do
    let q = [| Rng.uniform rng 0. 5.; Rng.uniform rng 0. 5. |] in
    check_float "kd-tree evaluator = scan"
      (Verify.weighted_depth ~radius:1.2 pts q)
      (Verify.eval e q)
  done

let test_verify_colored () =
  let pts = [| [| 0.; 0. |]; [| 0.2; 0. |]; [| 0.4; 0. |]; [| 9.; 9. |] |] in
  let colors = [| 1; 1; 2; 3 |] in
  Alcotest.(check int) "two colors at origin" 2
    (Verify.colored_depth pts ~colors [| 0.1; 0. |]);
  Alcotest.(check bool) "colored achieved" true
    (Verify.check_colored_achieved pts ~colors [| 0.1; 0. |] 2);
  Alcotest.(check bool) "colored not achieved" false
    (Verify.check_colored_achieved pts ~colors [| 0.1; 0. |] 3)

(* ------------------------------------------------------------------ *)
(* Points_io *)

let test_io_parse_lines () =
  let p, w = Points_io.parse_weighted_line "1.5,2.5,3.25" in
  Alcotest.(check bool) "coords" true (Point.equal p [| 1.5; 2.5 |]);
  check_float "weight" 3.25 w;
  let p2, w2 = Points_io.parse_weighted_line ~unweighted:true "1,2,3" in
  Alcotest.(check int) "unweighted dims" 3 (Point.dim p2);
  check_float "unit weight" 1. w2;
  let (x, y), c = Points_io.parse_colored_line "0.5, 0.25, 7" in
  check_float "x" 0.5 x;
  check_float "y" 0.25 y;
  Alcotest.(check int) "color" 7 c;
  let x1, w1 = Points_io.parse_1d_line "4.5" in
  check_float "bare coordinate" 4.5 x1;
  check_float "default weight" 1. w1

let test_io_parse_errors () =
  let expect_error f =
    match f () with
    | exception Points_io.Parse_error _ -> ()
    | _ -> Alcotest.fail "expected Parse_error"
  in
  expect_error (fun () -> Points_io.parse_weighted_line "abc,1");
  expect_error (fun () -> Points_io.parse_colored_line "1,2");
  expect_error (fun () -> Points_io.parse_colored_line "1,2,-3");
  expect_error (fun () -> Points_io.parse_colored_line "1,2,3.5");
  expect_error (fun () -> Points_io.parse_1d_line "1,2,3")

let test_io_roundtrip () =
  let rng = Rng.create 41 in
  let pts =
    Array.init 50 (fun _ ->
        ( [| Rng.uniform rng (-5.) 5.; Rng.uniform rng (-5.) 5. |],
          Rng.uniform rng 0. 3. ))
  in
  let path = Filename.temp_file "maxrs_io" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Points_io.save_weighted path pts;
      let loaded = Points_io.load_weighted path in
      Alcotest.(check int) "count" 50 (Array.length loaded);
      Array.iteri
        (fun i (p, w) ->
          Alcotest.(check bool) "point" true (Point.equal p (fst pts.(i)));
          check_float "weight" (snd pts.(i)) w)
        loaded)

let test_io_colored_roundtrip () =
  let pts = [| (0.5, 1.5); (-2., 3.) |] and colors = [| 4; 0 |] in
  let path = Filename.temp_file "maxrs_io" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Points_io.save_colored path pts colors;
      let pts', colors' = Points_io.load_colored path in
      Alcotest.(check bool) "points" true (pts' = pts);
      Alcotest.(check bool) "colors" true (colors' = colors))

let test_io_comments_and_blanks () =
  let path = Filename.temp_file "maxrs_io" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "# header comment\n\n1,2,0\n\n# trailing\n3,4,1\n";
      close_out oc;
      let pts, colors = Points_io.load_colored path in
      Alcotest.(check int) "two records" 2 (Array.length pts);
      Alcotest.(check bool) "colors parsed" true (colors = [| 0; 1 |]))

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace_parse () =
  (match Trace.parse_line "+ 1.5,2.5" with
  | Trace.Insert (p, w) ->
      Alcotest.(check bool) "coords" true (Point.equal p [| 1.5; 2.5 |]);
      check_float "weight 1" 1. w
  | _ -> Alcotest.fail "expected insert");
  (match Trace.parse_line "w 1,2,3.5" with
  | Trace.Insert (p, w) ->
      Alcotest.(check bool) "coords" true (Point.equal p [| 1.; 2. |]);
      check_float "weight" 3.5 w
  | _ -> Alcotest.fail "expected weighted insert");
  (match Trace.parse_line "- 7" with
  | Trace.Delete 7 -> ()
  | _ -> Alcotest.fail "expected delete");
  match Trace.parse_line "?" with
  | Trace.Query -> ()
  | _ -> Alcotest.fail "expected query"

let test_trace_parse_errors () =
  let expect f =
    match f () with
    | exception Trace.Parse_error _ -> ()
    | _ -> Alcotest.fail "expected Parse_error"
  in
  expect (fun () -> Trace.parse_line "");
  expect (fun () -> Trace.parse_line "- x");
  expect (fun () -> Trace.parse_line "+ a,b");
  expect (fun () -> Trace.parse_line "w 3.5");
  expect (fun () -> Trace.parse_line "insert 1,2")

let test_trace_roundtrip () =
  let rng = Rng.create 71 in
  let ops = Trace.random rng ~dim:2 ~ops:60 ~extent:5. () in
  let path = Filename.temp_file "maxrs_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save path ops;
      let loaded = Trace.load path in
      Alcotest.(check int) "op count" (Array.length ops) (Array.length loaded);
      Array.iteri
        (fun i op ->
          match (op, loaded.(i)) with
          | Trace.Query, Trace.Query -> ()
          | Trace.Delete a, Trace.Delete b -> Alcotest.(check int) "del" a b
          | Trace.Insert (p, w), Trace.Insert (p', w') ->
              Alcotest.(check bool) "point" true (Point.equal p p');
              check_float "weight" w w'
          | _ -> Alcotest.fail "op kind mismatch")
        ops)

let test_trace_replay_deletes_invalid () =
  let ops = [| Trace.Delete 0 |] in
  let cfg = Config.make ~epsilon:0.3 ~max_grid_shifts:(Some 4) ~seed:1 () in
  let dyn = Dynamic.create ~cfg ~dim:2 () in
  match Trace.replay dyn ops with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_trace_dynamic_soundness_stress () =
  (* Random churn workload: every reported best value must be achievable
     at the reported point (the universal soundness property of the
     sample-space design). *)
  let cfg = Config.make ~epsilon:0.3 ~max_grid_shifts:(Some 6) ~seed:3 () in
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let ops = Trace.random rng ~dim:2 ~ops:300 ~extent:4. ~churn:0.4 () in
      let steps = Trace.replay_with_check ~cfg ~dim:2 ops in
      Alcotest.(check bool) "some queries ran" true (steps <> []);
      List.iter
        (fun ((s : Trace.step), verified) ->
          match s.Trace.best with
          | Some (_, v) ->
              Alcotest.(check bool)
                (Printf.sprintf "sound at op %d (%g <= %g)" s.Trace.op_index v
                   verified)
                true
                (v <= verified +. 1e-9)
          | None -> ())
        steps)
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Technique 1 in d = 1: cross-check against the exact interval sweep
   (a ball of radius r in R^1 is an interval of length 2r). *)

let test_static_1d_vs_exact_interval () =
  let rng = Rng.create 97 in
  for trial = 1 to 10 do
    let n = 20 + Rng.int rng 60 in
    let xs = Array.init n (fun _ -> Rng.uniform rng 0. 20.) in
    let ws = Array.init n (fun _ -> Rng.uniform rng 0.5 2.) in
    let radius = 1.0 in
    let exact =
      Interval1d.max_sum ~len:(2. *. radius)
        (Array.init n (fun i -> (xs.(i), ws.(i))))
    in
    let cfg = Config.make ~epsilon:0.25 ~seed:trial () in
    let pts = Array.init n (fun i -> ([| xs.(i) |], ws.(i))) in
    let r = Static.solve_or_point ~cfg ~radius ~dim:1 pts in
    let ratio = r.Static.value /. exact.Interval1d.value in
    Alcotest.(check bool)
      (Printf.sprintf "trial %d: 1d ratio %.3f" trial ratio)
      true
      (ratio >= 0.25 && ratio <= 1. +. 1e-9)
  done

(* ------------------------------------------------------------------ *)
(* Colored_stream (insert-only monitor) *)

let stream_cfg = Config.make ~epsilon:0.25 ~max_grid_shifts:(Some 16) ~seed:5 ()

let test_stream_interleaved_colors_once () =
  (* The case the Section-3.2 flag trick cannot handle in a stream:
     colors interleave, revisiting a sample must not double count. *)
  let s = Colored_stream.create ~cfg:stream_cfg ~dim:2 () in
  Colored_stream.insert s ~color:1 [| 0.; 0. |];
  Colored_stream.insert s ~color:2 [| 0.1; 0. |];
  Colored_stream.insert s ~color:1 [| 0.; 0.1 |];
  Colored_stream.insert s ~color:2 [| 0.1; 0.1 |];
  (match Colored_stream.best s with
  | Some (_, v) -> Alcotest.(check int) "two distinct colors" 2 v
  | None -> Alcotest.fail "expected a placement");
  Alcotest.(check int) "size" 4 (Colored_stream.size s);
  Alcotest.(check int) "colors tracked" 2 (Colored_stream.distinct_colors s)

let test_stream_planted_random_order () =
  let rng = Rng.create 51 in
  let pts, colors, _, opt = Workload.planted_colored rng ~n:60 ~opt:20 in
  let order = Array.init 60 Fun.id in
  Rng.shuffle rng order;
  let s = Colored_stream.create ~cfg:stream_cfg ~dim:2 () in
  Array.iter
    (fun i ->
      let x, y = pts.(i) in
      Colored_stream.insert s ~color:colors.(i) [| x; y |])
    order;
  match Colored_stream.best s with
  | Some (_, v) -> Alcotest.(check int) "recovers planted colored opt" opt v
  | None -> Alcotest.fail "expected a placement"

let test_stream_sound_and_within_factor () =
  let rng = Rng.create 53 in
  let pts, colors =
    Workload.trajectories rng ~m:8 ~steps:12 ~extent:6. ~step:0.4
  in
  let n = Array.length pts in
  let order = Array.init n Fun.id in
  Rng.shuffle rng order;
  let s = Colored_stream.create ~cfg:stream_cfg ~dim:2 () in
  let fed = ref [] in
  Array.iteri
    (fun step i ->
      let x, y = pts.(i) in
      Colored_stream.insert s ~color:colors.(i) [| x; y |];
      fed := i :: !fed;
      if (step + 1) mod 30 = 0 || step = n - 1 then begin
        let idx = Array.of_list !fed in
        let cur = Array.map (fun j -> pts.(j)) idx in
        let cur_colors = Array.map (fun j -> colors.(j)) idx in
        let exact = Colored_disk2d.max_colored ~radius:1. cur ~colors:cur_colors in
        match Colored_stream.best s with
        | Some (center, v) ->
            (* soundness: reported depth is achievable at the point *)
            let true_depth =
              Colored_disk2d.colored_depth_at ~radius:1. cur ~colors:cur_colors
                center.(0) center.(1)
            in
            Alcotest.(check bool)
              (Printf.sprintf "step %d sound (%d <= %d)" step v true_depth)
              true (v <= true_depth);
            Alcotest.(check bool)
              (Printf.sprintf "step %d within factor (%d vs %d)" step v
                 exact.Colored_disk2d.value)
              true
              (4 * v >= exact.Colored_disk2d.value)
        | None -> Alcotest.fail "expected placement"
      end)
    order

let test_stream_epochs () =
  let rng = Rng.create 57 in
  let s = Colored_stream.create ~cfg:stream_cfg ~dim:2 () in
  for i = 0 to 99 do
    Colored_stream.insert s ~color:(i mod 7)
      [| Rng.uniform rng 0. 4.; Rng.uniform rng 0. 4. |]
  done;
  Alcotest.(check bool) "epochs advanced" true (Colored_stream.epochs s > 0);
  Alcotest.(check int) "size" 100 (Colored_stream.size s)

(* ------------------------------------------------------------------ *)
(* Grid_baseline (bicriteria) *)

let test_grid_baseline_dominates_exact () =
  (* The bicriteria guarantee: value at radius (1+eps) >= opt at radius 1. *)
  let rng = Rng.create 101 in
  for trial = 1 to 5 do
    let n = 30 + Rng.int rng 40 in
    let pts =
      Array.init n (fun _ ->
          ( [| Rng.uniform rng 0. 6.; Rng.uniform rng 0. 6. |],
            Rng.uniform rng 0.5 2. ))
    in
    let exact =
      Disk2d.max_weight ~radius:1.
        (Array.map (fun (p, w) -> (p.(0), p.(1), w)) pts)
    in
    let r = Grid_baseline.solve ~epsilon:0.25 ~dim:2 pts in
    Alcotest.(check bool)
      (Printf.sprintf "trial %d: %.2f >= %.2f" trial r.Grid_baseline.value
         exact.Disk2d.value)
      true
      (r.Grid_baseline.value >= exact.Disk2d.value -. 1e-9)
  done

let test_grid_baseline_planted () =
  let rng = Rng.create 103 in
  let pts, _, opt = Workload.planted rng ~dim:3 ~n:40 ~opt:15 in
  let r = Grid_baseline.solve ~epsilon:0.3 ~dim:3 pts in
  Alcotest.(check bool) "planted recovered" true (r.Grid_baseline.value >= opt);
  Alcotest.(check bool) "candidates counted" true (r.Grid_baseline.candidates > 0)

let test_grid_baseline_value_achievable () =
  let rng = Rng.create 107 in
  let pts =
    Array.init 50 (fun _ ->
        ([| Rng.uniform rng 0. 5.; Rng.uniform rng 0. 5. |], 1.))
  in
  let eps = 0.25 in
  let r = Grid_baseline.solve ~epsilon:eps ~dim:2 pts in
  let covered = Verify.weighted_depth ~radius:(1. +. eps) pts r.Grid_baseline.center in
  Alcotest.(check bool) "achieved at expanded radius" true
    (covered >= r.Grid_baseline.value -. 1e-9)

let test_grid_baseline_colored_dominates () =
  let rng = Rng.create 109 in
  let pts, colors =
    Workload.trajectories rng ~m:6 ~steps:10 ~extent:5. ~step:0.4
  in
  let exact = Colored_disk2d.max_colored ~radius:1. pts ~colors in
  let points = Array.map (fun (x, y) -> [| x; y |]) pts in
  let _, v = Grid_baseline.solve_colored ~epsilon:0.25 ~dim:2 points ~colors in
  Alcotest.(check bool) "colored bicriteria dominates" true
    (v >= exact.Colored_disk2d.value)

(* ------------------------------------------------------------------ *)
(* Metamorphic properties: the solvers are invariant under input
   transformations that provably preserve the optimum. All generators
   draw coordinates on the dyadic lattice k/8 with integer weights, and
   the applied translations / scalings are dyadic too, so every
   arithmetic step below (translations, x2 scalings, the radius
   normalization x -> x / r, weight sums) is exact in binary floating
   point: the assertions are exact value equality, not tolerance
   checks. Witness points may legitimately differ between runs (ties),
   so only the optimum value is compared.

   The randomized Static / Colored solvers (Theorems 1.2/1.5) are
   deliberately tested under power-of-two scaling only: their grids are
   anchored at the origin and every grid cell draws its own rng stream,
   so translating or permuting the input changes which witnesses are
   sampled — the (1/2 - eps) guarantee is distributional, not
   pointwise. Scaling by a power of two composes bit-exactly with the
   radius normalization, so the whole computation replays verbatim. *)

let dyadic k = float_of_int k /. 8.

(* The solvers reject an empty input, and QCheck's list shrinker
   ignores [list_of_size]'s lower bound: keep it away from [], so a
   failure shrinks to a real counterexample instead of the solvers'
   "must be non-empty" error. Generation is unchanged. *)
let shrink_non_empty non_empty arb =
  match arb.QCheck.shrink with
  | None -> arb
  | Some shrink ->
      QCheck.set_shrink
        (fun v yield -> shrink v (fun v' -> if non_empty v' then yield v'))
        arb

let gen_weighted_lattice =
  QCheck.(
    list_of_size
      (Gen.int_range 1 25)
      (triple (int_range 0 48) (int_range 0 48) (int_range 1 4)))
  |> shrink_non_empty (( <> ) [])

let gen_colored_lattice =
  QCheck.(
    list_of_size
      (Gen.int_range 1 25)
      (triple (int_range 0 48) (int_range 0 48) (int_range 0 5)))
  |> shrink_non_empty (( <> ) [])

let gen_offset = QCheck.int_range (-40) 40

let weighted_pts l =
  Array.of_list
    (List.map (fun (x, y, w) -> (dyadic x, dyadic y, float_of_int w)) l)

let colored_pts l =
  ( Array.of_list (List.map (fun (x, y, _) -> (dyadic x, dyadic y)) l),
    Array.of_list (List.map (fun (_, _, c) -> c) l) )

let prop_disk2d_translation_invariant =
  QCheck.Test.make ~count:80 ~long_factor:5
    ~name:"disk2d: dyadic translation preserves the optimum"
    QCheck.(triple gen_weighted_lattice gen_offset gen_offset)
    (fun (l, tx, ty) ->
      let pts = weighted_pts l in
      let moved =
        Array.map (fun (x, y, w) -> (x +. dyadic tx, y +. dyadic ty, w)) pts
      in
      let a = Disk2d.max_weight ~radius:1. pts in
      let b = Disk2d.max_weight ~radius:1. moved in
      a.Disk2d.value = b.Disk2d.value)

let prop_disk2d_permutation_invariant =
  QCheck.Test.make ~count:80 ~long_factor:5
    ~name:"disk2d: input order is irrelevant"
    gen_weighted_lattice
    (fun l ->
      let pts = weighted_pts l in
      let rev = Array.of_list (List.rev (Array.to_list pts)) in
      let a = Disk2d.max_weight ~radius:1. pts in
      let b = Disk2d.max_weight ~radius:1. rev in
      a.Disk2d.value = b.Disk2d.value)

let prop_disk2d_scaling_invariant =
  QCheck.Test.make ~count:80 ~long_factor:5
    ~name:"disk2d: doubling coordinates and radius preserves the optimum"
    gen_weighted_lattice
    (fun l ->
      let pts = weighted_pts l in
      let scaled = Array.map (fun (x, y, w) -> (2. *. x, 2. *. y, w)) pts in
      let a = Disk2d.max_weight ~radius:1. pts in
      let b = Disk2d.max_weight ~radius:2. scaled in
      a.Disk2d.value = b.Disk2d.value)

let prop_colored_disk2d_translation_invariant =
  QCheck.Test.make ~count:80 ~long_factor:5
    ~name:"colored disk2d: dyadic translation preserves the optimum"
    QCheck.(triple gen_colored_lattice gen_offset gen_offset)
    (fun (l, tx, ty) ->
      let pts, colors = colored_pts l in
      let moved =
        Array.map (fun (x, y) -> (x +. dyadic tx, y +. dyadic ty)) pts
      in
      let a = Colored_disk2d.max_colored ~radius:1. pts ~colors in
      let b = Colored_disk2d.max_colored ~radius:1. moved ~colors in
      a.Colored_disk2d.value = b.Colored_disk2d.value)

let prop_colored_disk2d_permutation_invariant =
  QCheck.Test.make ~count:80 ~long_factor:5
    ~name:"colored disk2d: input order is irrelevant"
    gen_colored_lattice
    (fun l ->
      let pts, colors = colored_pts l in
      let rl = List.rev l in
      let rpts, rcolors = colored_pts rl in
      let a = Colored_disk2d.max_colored ~radius:1. pts ~colors in
      let b = Colored_disk2d.max_colored ~radius:1. rpts ~colors:rcolors in
      a.Colored_disk2d.value = b.Colored_disk2d.value)

let prop_colored_disk2d_scaling_invariant =
  QCheck.Test.make ~count:80 ~long_factor:5
    ~name:"colored disk2d: doubling coordinates and radius preserves the \
           optimum"
    gen_colored_lattice
    (fun l ->
      let pts, colors = colored_pts l in
      let scaled = Array.map (fun (x, y) -> (2. *. x, 2. *. y)) pts in
      let a = Colored_disk2d.max_colored ~radius:1. pts ~colors in
      let b = Colored_disk2d.max_colored ~radius:2. scaled ~colors in
      a.Colored_disk2d.value = b.Colored_disk2d.value)

let gen_interval_lattice =
  QCheck.(
    pair
      (list_of_size
         (Gen.int_range 1 30)
         (pair (int_range (-48) 48) (int_range 1 4)))
      (int_range 4 32))
  |> shrink_non_empty (fun (l, _) -> l <> [])

let interval_pts l =
  Array.of_list (List.map (fun (x, w) -> (dyadic x, float_of_int w)) l)

let prop_interval1d_translation_invariant =
  QCheck.Test.make ~count:120 ~long_factor:5
    ~name:"interval1d: dyadic translation preserves the optimum"
    QCheck.(pair gen_interval_lattice gen_offset)
    (fun ((l, len), t) ->
      let pts = interval_pts l in
      let moved = Array.map (fun (x, w) -> (x +. dyadic t, w)) pts in
      let len = dyadic len in
      let a = Interval1d.max_sum ~len pts in
      let b = Interval1d.max_sum ~len moved in
      a.Interval1d.value = b.Interval1d.value)

let prop_interval1d_permutation_invariant =
  QCheck.Test.make ~count:120 ~long_factor:5
    ~name:"interval1d: input order is irrelevant"
    gen_interval_lattice
    (fun (l, len) ->
      let pts = interval_pts l in
      let rev = Array.of_list (List.rev (Array.to_list pts)) in
      let len = dyadic len in
      let a = Interval1d.max_sum ~len pts in
      let b = Interval1d.max_sum ~len rev in
      a.Interval1d.value = b.Interval1d.value)

let prop_interval1d_scaling_invariant =
  QCheck.Test.make ~count:120 ~long_factor:5
    ~name:"interval1d: doubling coordinates and length preserves the optimum"
    gen_interval_lattice
    (fun (l, len) ->
      let pts = interval_pts l in
      let scaled = Array.map (fun (x, w) -> (2. *. x, w)) pts in
      let len = dyadic len in
      let a = Interval1d.max_sum ~len pts in
      let b = Interval1d.max_sum ~len:(2. *. len) scaled in
      a.Interval1d.value = b.Interval1d.value)

(* Fixed seed + capped shifts: both runs replay the same random
   choices, so the scaling metamorphosis compares identical sampling
   decisions on bit-identical normalized inputs. *)
let meta_cfg = Config.make ~max_grid_shifts:(Some 3) ~seed:4242 ()

let prop_static_scaling_invariant =
  QCheck.Test.make ~count:40 ~long_factor:5
    ~name:"static (Thm 1.2): power-of-two scaling replays bit-exactly"
    gen_weighted_lattice
    (fun l ->
      let pts =
        Array.of_list
          (List.map
             (fun (x, y, w) -> ([| dyadic x; dyadic y |], float_of_int w))
             l)
      in
      let scaled = Array.map (fun (p, w) -> (Point.scale 2. p, w)) pts in
      let a = Static.solve ~cfg:meta_cfg ~radius:1. ~dim:2 pts in
      let b = Static.solve ~cfg:meta_cfg ~radius:2. ~dim:2 scaled in
      match (a, b) with
      | None, None -> true
      | Some a, Some b -> a.Static.value = b.Static.value
      | _ -> false)

let prop_colored_static_scaling_invariant =
  QCheck.Test.make ~count:40 ~long_factor:5
    ~name:"colored (Thm 1.5): power-of-two scaling replays bit-exactly"
    gen_colored_lattice
    (fun l ->
      let pts =
        Array.of_list (List.map (fun (x, y, _) -> [| dyadic x; dyadic y |]) l)
      in
      let colors = Array.of_list (List.map (fun (_, _, c) -> c) l) in
      let scaled = Array.map (Point.scale 2.) pts in
      let a = Maxrs.Colored.solve ~cfg:meta_cfg ~radius:1. ~dim:2 pts ~colors in
      let b =
        Maxrs.Colored.solve ~cfg:meta_cfg ~radius:2. ~dim:2 scaled ~colors
      in
      match (a, b) with
      | None, None -> true
      | Some a, Some b -> a.Maxrs.Colored.value = b.Maxrs.Colored.value
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* The boundary rule ([Closed]): on exact coincidences and on near
   tangencies within the slack, every solver finds what its own scoring
   and [Verify] accept. *)

let weighted_points pts = Array.map (fun (x, y, w) -> ([| x; y |], w)) pts

(* Two points [gap] apart along one axis, the other coordinate equal. *)
let gap_pair ~axis gap =
  if axis = 0 then [| (0.25, 0.5, 1.); (0.25 +. gap, 0.5, 1.) |]
  else [| (0.5, 0.25, 1.); (0.5, 0.25 +. gap, 1.) |]

let test_rect_gap_within_slack () =
  List.iter
    (fun axis ->
      let pts = gap_pair ~axis (1. +. 5e-13) in
      let label s = Printf.sprintf "%s, gap on axis %d" s axis in
      let a = Rect2d.max_sum ~width:1. ~height:1. pts in
      check_float (label "sweep") 2. a.Rect2d.value;
      check_float (label "brute") 2.
        (Rect2d.max_sum_brute ~width:1. ~height:1. pts).Rect2d.value;
      check_float (label "sweep placement achieves it") 2.
        (Boxd.depth_at ~widths:[| 1.; 1. |] (weighted_points pts)
           [| a.Rect2d.x; a.Rect2d.y |]);
      let b = Boxd.max_sum ~widths:[| 1.; 1. |] (weighted_points pts) in
      check_float (label "boxd") 2. b.Boxd.value;
      check_float (label "boxd placement achieves it") 2.
        (Boxd.depth_at ~widths:[| 1.; 1. |] (weighted_points pts) b.Boxd.point);
      let centers = Array.map (fun (x, y, _) -> (x, y)) pts in
      let colors = [| 0; 1 |] in
      let c = Colored_rect2d.max_colored ~width:1. ~height:1. centers ~colors in
      Alcotest.(check int) (label "colored rect") 2 c.Colored_rect2d.value;
      Alcotest.(check int)
        (label "colored rect placement achieves it")
        2
        (Colored_rect2d.colored_depth_at ~width:1. ~height:1. centers ~colors
           c.Colored_rect2d.x c.Colored_rect2d.y))
    [ 0; 1 ]

(* Two unit disks whose centers are 2 + 5e-10 apart: the closed rule
   puts their midpoint in both. *)
let test_disks_near_tangent () =
  let d = 2. +. 5e-10 in
  let x1 = d *. cos 1. and y1 = d *. sin 1. in
  let pts = [| (0., 0., 1.); (x1, y1, 1.) |] in
  let centers = [| (0., 0.); (x1, y1) |] and colors = [| 0; 1 |] in
  check_float "verify at the midpoint" 2.
    (Verify.weighted_depth (weighted_points pts) [| x1 /. 2.; y1 /. 2. |]);
  check_float "disk2d" 2. (Disk2d.max_weight ~radius:1. pts).Disk2d.value;
  check_float "brute" 2. (snd (Brute.max_weighted ~radius:1. pts));
  Alcotest.(check int) "colored disk2d" 2
    (Colored_disk2d.max_colored ~radius:1. centers ~colors)
      .Colored_disk2d.value;
  Alcotest.(check int) "output-sensitive" 2
    (Output_sensitive.solve ~radius:1. centers ~colors).Output_sensitive.depth

(* Degenerate planar inputs on the k/8 lattice: pairs exactly one side
   apart (2 for unit disks) and a side ± eps/2 apart, duplicates,
   cocircular quadruples around a lattice point, and zero weights. Each
   item is (kind, lattice x, lattice y, weight). One input offsets its
   near pairs all by +eps/2 or all by -eps/2, so two offsets never add up
   to a spread of a side ± eps, where candidates slid to rest on a point
   sit exactly at the slack and two roundings of one test may differ. *)
let gen_degenerate =
  QCheck.(
    pair bool
      (list_of_size
         (Gen.int_range 1 6)
         (quad (int_range 0 5) (int_range 0 32) (int_range 0 32)
            (int_range 0 3))))
  |> shrink_non_empty (fun (_, l) -> l <> [])

(* Expand the items into weighted planar points; [side] is the pair
   distance (2 for unit disks, a side for rectangles). *)
let degenerate_points ~side (up, l) =
  let off = if up then Closed.eps /. 2. else -.Closed.eps /. 2. in
  List.concat_map
    (fun (kind, kx, ky, w) ->
      let x = dyadic kx and y = dyadic ky and w = float_of_int w in
      match kind with
      | 0 -> [ (x, y, w); (x +. side, y, w) ]
      | 1 -> [ (x, y, w); (x, y +. side +. off, w) ]
      | 2 -> [ (x, y, w); (x +. side +. off, y, w) ]
      | 3 -> [ (x, y, w); (x, y, w) ]
      | 4 ->
          let r = side /. 2. in
          [ (x +. r, y, w); (x -. r, y, w); (x, y +. r, w); (x, y -. r, w) ]
      | _ -> [ (x, y, w) ])
    l
  |> Array.of_list

(* Ground truth for unit disks: the best of Verify's kd-tree evaluator
   over every center, pairwise circle crossing and touching midpoint. *)
let disk_candidates pts =
  let n = Array.length pts in
  let acc = ref (Array.to_list (Array.map (fun (x, y, _) -> (x, y)) pts)) in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let xi, yi, _ = pts.(i) and xj, yj, _ = pts.(j) in
      let ci = Circle.make ~cx:xi ~cy:yi ~r:1. in
      let cj = Circle.make ~cx:xj ~cy:yj ~r:1. in
      acc :=
        (((xi +. xj) /. 2.), ((yi +. yj) /. 2.))
        :: (Circle.intersections ci cj @ !acc)
    done
  done;
  !acc

let prop_degenerate_disks =
  QCheck.Test.make ~count:150 ~long_factor:5
    ~name:"degenerate disks: exact solvers = Verify ground truth"
    gen_degenerate
    (fun l ->
      let pts = degenerate_points ~side:2. l in
      let wpts = weighted_points pts in
      let centers = Array.map (fun (x, y, _) -> (x, y)) pts in
      let colors = Array.map (fun (_, _, w) -> int_of_float w) pts in
      let cpts = Array.map (fun (x, y) -> [| x; y |]) centers in
      let ev = Verify.evaluator wpts in
      let cands = disk_candidates pts in
      let truth =
        List.fold_left
          (fun acc (x, y) -> Float.max acc (Verify.eval ev [| x; y |]))
          neg_infinity cands
      in
      let ctruth =
        List.fold_left
          (fun acc (x, y) ->
            max acc (Verify.colored_depth cpts ~colors [| x; y |]))
          0 cands
      in
      let rev a = Array.of_list (List.rev (Array.to_list a)) in
      let weighted =
        [
          ("disk2d", (Disk2d.max_weight ~radius:1. pts).Disk2d.value);
          ( "disk2d reversed",
            (Disk2d.max_weight ~radius:1. (rev pts)).Disk2d.value );
          ("brute", snd (Brute.max_weighted ~radius:1. pts));
        ]
      in
      let colored =
        [
          ( "colored disk2d",
            (Colored_disk2d.max_colored ~radius:1. centers ~colors)
              .Colored_disk2d.value );
          ( "colored disk2d reversed",
            (Colored_disk2d.max_colored ~radius:1. (rev centers)
               ~colors:(rev colors))
              .Colored_disk2d.value );
          ( "output-sensitive",
            (Output_sensitive.solve ~radius:1. centers ~colors)
              .Output_sensitive.depth );
          ( "output-sensitive reversed",
            (Output_sensitive.solve ~radius:1. (rev centers)
               ~colors:(rev colors))
              .Output_sensitive.depth );
          ("brute colored", snd (Brute.max_colored ~radius:1. centers ~colors));
        ]
      in
      List.iter
        (fun (name, v) ->
          if v <> truth then
            QCheck.Test.fail_reportf "%s = %g, ground truth %g" name v truth)
        weighted;
      List.iter
        (fun (name, v) ->
          if v <> ctruth then
            QCheck.Test.fail_reportf "%s = %d, ground truth %d" name v ctruth)
        colored;
      true)

(* Rectangles of side 2 x 1.5 on the same degenerate families, built
   for both sides, against the brute forces. *)
let prop_degenerate_rects =
  QCheck.Test.make ~count:150 ~long_factor:5
    ~name:"degenerate rectangles: solvers = brute count, placements achieve"
    gen_degenerate
    (fun l ->
      let w = 2. and h = 1.5 in
      let pts =
        Array.append (degenerate_points ~side:w l) (degenerate_points ~side:h l)
      in
      let rev a = Array.of_list (List.rev (Array.to_list a)) in
      let wpts = weighted_points pts in
      (* Brute count: every box slid to rest on a point along each axis,
         scored by [Box.contains]. *)
      let count =
        Array.fold_left
          (fun acc (x, _, _) ->
            Array.fold_left
              (fun acc (_, y, _) ->
                let box = Box.make [| x; y |] [| x +. w; y +. h |] in
                Float.max acc
                  (Array.fold_left
                     (fun s (p, wt) ->
                       if Box.contains box p then s +. wt else s)
                     0. wpts))
              acc pts)
          0. pts
      in
      let rect name (r : Rect2d.placement) = (name, r.value, [| r.x; r.y |]) in
      let boxd name (r : Boxd.result) = (name, r.value, r.point) in
      let got =
        [
          rect "max_sum_brute" (Rect2d.max_sum_brute ~width:w ~height:h pts);
          rect "rect2d" (Rect2d.max_sum ~width:w ~height:h pts);
          rect "rect2d reversed" (Rect2d.max_sum ~width:w ~height:h (rev pts));
          boxd "boxd" (Boxd.max_sum ~widths:[| w; h |] wpts);
          boxd "boxd reversed" (Boxd.max_sum ~widths:[| w; h |] (rev wpts));
        ]
      in
      List.iter
        (fun (name, v, p) ->
          if v <> count then
            QCheck.Test.fail_reportf "%s = %g, brute count %g" name v count;
          let at = Boxd.depth_at ~widths:[| w; h |] wpts p in
          if at <> v then
            QCheck.Test.fail_reportf "%s placement covers %g, not %g" name at v)
        got;
      true)

(* Rotation by 90 degrees and reflection in the diagonal map the k/8
   lattice onto itself exactly (negation and coordinate swaps are exact
   in IEEE-754), and both preserve every distance. *)
let rotate (x, y) = (-.y, x)
let reflect (x, y) = (y, x)

let prop_disk2d_rotation_invariant =
  QCheck.Test.make ~count:80 ~long_factor:5
    ~name:"disk2d: 90-degree rotation preserves the optimum"
    gen_weighted_lattice
    (fun l ->
      let pts = weighted_pts l in
      let turned =
        Array.map (fun (x, y, w) -> let x, y = rotate (x, y) in (x, y, w)) pts
      in
      (Disk2d.max_weight ~radius:1. pts).Disk2d.value
      = (Disk2d.max_weight ~radius:1. turned).Disk2d.value)

let prop_disk2d_reflection_invariant =
  QCheck.Test.make ~count:80 ~long_factor:5
    ~name:"disk2d: reflection preserves the optimum"
    gen_weighted_lattice
    (fun l ->
      let pts = weighted_pts l in
      let mirrored =
        Array.map (fun (x, y, w) -> let x, y = reflect (x, y) in (x, y, w)) pts
      in
      (Disk2d.max_weight ~radius:1. pts).Disk2d.value
      = (Disk2d.max_weight ~radius:1. mirrored).Disk2d.value)

let prop_colored_disk2d_rotation_invariant =
  QCheck.Test.make ~count:80 ~long_factor:5
    ~name:"colored disk2d: 90-degree rotation preserves the optimum"
    gen_colored_lattice
    (fun l ->
      let pts, colors = colored_pts l in
      (Colored_disk2d.max_colored ~radius:1. pts ~colors).Colored_disk2d.value
      = (Colored_disk2d.max_colored ~radius:1. (Array.map rotate pts) ~colors)
          .Colored_disk2d.value)

let prop_colored_disk2d_reflection_invariant =
  QCheck.Test.make ~count:80 ~long_factor:5
    ~name:"colored disk2d: reflection preserves the optimum"
    gen_colored_lattice
    (fun l ->
      let pts, colors = colored_pts l in
      (Colored_disk2d.max_colored ~radius:1. pts ~colors).Colored_disk2d.value
      = (Colored_disk2d.max_colored ~radius:1. (Array.map reflect pts) ~colors)
          .Colored_disk2d.value)

let prop_interval1d_reflection_invariant =
  QCheck.Test.make ~count:120 ~long_factor:5
    ~name:"interval1d: reflection preserves the optimum"
    gen_interval_lattice
    (fun (l, len) ->
      let pts = interval_pts l in
      let len = dyadic len in
      (Interval1d.max_sum ~len pts).Interval1d.value
      = (Interval1d.max_sum ~len (Array.map (fun (x, w) -> (-.x, w)) pts))
          .Interval1d.value)

(* ------------------------------------------------------------------ *)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_kdtree_ball_count;
      prop_kdtree_nearest;
      prop_boxd_2d_matches_rect;
      prop_boxd_3d_matches_brute;
      prop_colored_stab_matches_brute;
      prop_colored_stab_point_achieves;
      prop_colored_rect_matches_brute;
      prop_colored_rect_point_achieves;
      prop_approx_rect_sound;
    ]

let metamorphic_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_disk2d_translation_invariant;
      prop_disk2d_permutation_invariant;
      prop_disk2d_scaling_invariant;
      prop_colored_disk2d_translation_invariant;
      prop_colored_disk2d_permutation_invariant;
      prop_colored_disk2d_scaling_invariant;
      prop_interval1d_translation_invariant;
      prop_interval1d_permutation_invariant;
      prop_interval1d_scaling_invariant;
      prop_disk2d_rotation_invariant;
      prop_disk2d_reflection_invariant;
      prop_colored_disk2d_rotation_invariant;
      prop_colored_disk2d_reflection_invariant;
      prop_interval1d_reflection_invariant;
      prop_static_scaling_invariant;
      prop_colored_static_scaling_invariant;
    ]

let () =
  Alcotest.run "ext"
    [
      ( "kdtree",
        [
          Alcotest.test_case "basics" `Quick test_kdtree_basic;
          Alcotest.test_case "nearest" `Quick test_kdtree_nearest;
          Alcotest.test_case "coincident points" `Quick test_kdtree_duplicates;
        ] );
      ( "boxd",
        [
          Alcotest.test_case "1d = interval sweep" `Quick
            test_boxd_1d_matches_interval;
          Alcotest.test_case "planted 3d" `Quick test_boxd_planted;
          Alcotest.test_case "point achieves value" `Quick
            test_boxd_point_achieves_value;
        ] );
      ( "colored-1d",
        [
          Alcotest.test_case "basic" `Quick test_colored_stab_basic;
          Alcotest.test_case "same color once" `Quick
            test_colored_stab_same_color_once;
          Alcotest.test_case "union segments" `Quick test_color_unions_disjoint;
        ] );
      ( "colored-rect",
        [ Alcotest.test_case "basic" `Quick test_colored_rect_basic ] );
      ( "approx-colored-rect",
        [
          Alcotest.test_case "estimate within [opt/4, opt]" `Quick
            test_rect_estimate_bounds;
          Alcotest.test_case "small instances run exact" `Quick
            test_approx_rect_small_exact;
          Alcotest.test_case "sampling near-optimal" `Quick
            test_approx_rect_sampling_near_optimal;
        ] );
      ( "verify",
        [
          Alcotest.test_case "weighted depths" `Quick test_verify_depths;
          Alcotest.test_case "kd-tree evaluator" `Quick
            test_verify_evaluator_matches_scan;
          Alcotest.test_case "colored depths" `Quick test_verify_colored;
        ] );
      ( "colored-stream",
        [
          Alcotest.test_case "interleaved colors count once" `Quick
            test_stream_interleaved_colors_once;
          Alcotest.test_case "planted, random order" `Quick
            test_stream_planted_random_order;
          Alcotest.test_case "sound and within factor" `Quick
            test_stream_sound_and_within_factor;
          Alcotest.test_case "epochs trigger" `Quick test_stream_epochs;
        ] );
      ( "grid-baseline",
        [
          Alcotest.test_case "dominates exact at radius 1" `Quick
            test_grid_baseline_dominates_exact;
          Alcotest.test_case "planted 3d" `Quick test_grid_baseline_planted;
          Alcotest.test_case "value achievable" `Quick
            test_grid_baseline_value_achievable;
          Alcotest.test_case "colored dominates" `Quick
            test_grid_baseline_colored_dominates;
        ] );
      ( "trace",
        [
          Alcotest.test_case "parse ops" `Quick test_trace_parse;
          Alcotest.test_case "parse errors" `Quick test_trace_parse_errors;
          Alcotest.test_case "save/load roundtrip" `Quick test_trace_roundtrip;
          Alcotest.test_case "invalid delete" `Quick
            test_trace_replay_deletes_invalid;
          Alcotest.test_case "dynamic soundness stress" `Quick
            test_trace_dynamic_soundness_stress;
        ] );
      ( "technique1-1d",
        [
          Alcotest.test_case "vs exact interval sweep" `Quick
            test_static_1d_vs_exact_interval;
        ] );
      ( "points-io",
        [
          Alcotest.test_case "parse lines" `Quick test_io_parse_lines;
          Alcotest.test_case "parse errors" `Quick test_io_parse_errors;
          Alcotest.test_case "weighted roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "colored roundtrip" `Quick
            test_io_colored_roundtrip;
          Alcotest.test_case "comments and blanks" `Quick
            test_io_comments_and_blanks;
        ] );
      ( "boundary",
        [
          Alcotest.test_case "rectangles: gap of side + 5e-13" `Quick
            test_rect_gap_within_slack;
          Alcotest.test_case "disks: centers 2 + 5e-10 apart" `Quick
            test_disks_near_tangent;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_degenerate_disks; prop_degenerate_rects ] );
      ("properties", qcheck_cases);
      ("metamorphic", metamorphic_cases);
    ]
