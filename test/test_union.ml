(* Tests for the union-of-disks machinery (lib/union): per-color union
   boundaries and the output-sensitive "first algorithm" of Section 4. *)

module Angle = Maxrs_geom.Angle
module Circle = Maxrs_geom.Circle
module Rng = Maxrs_geom.Rng
module Disk_union = Maxrs_union.Disk_union
module Colored_depth = Maxrs_union.Colored_depth
module Colored_disk2d = Maxrs_sweep.Colored_disk2d

let total_arc_len arcs =
  List.fold_left (fun acc a -> acc +. a.Disk_union.ivl.Angle.len) 0. arcs

(* ------------------------------------------------------------------ *)
(* Disk_union *)

let test_union_single_disk () =
  let arcs = Disk_union.boundary_arcs ~radius:1. [| (0., 0.) |] in
  Alcotest.(check int) "one arc" 1 (List.length arcs);
  Alcotest.(check (float 1e-9)) "full circle" Angle.two_pi (total_arc_len arcs)

let test_union_disjoint_disks () =
  let arcs = Disk_union.boundary_arcs ~radius:1. [| (0., 0.); (10., 0.) |] in
  Alcotest.(check (float 1e-9)) "two full circles" (2. *. Angle.two_pi)
    (total_arc_len arcs)

let test_union_coincident_disks () =
  let arcs =
    Disk_union.boundary_arcs ~radius:1. [| (1., 2.); (1., 2.); (1., 2.) |]
  in
  Alcotest.(check (float 1e-9)) "deduplicated to one circle" Angle.two_pi
    (total_arc_len arcs)

let test_union_two_overlapping () =
  (* Unit disks at distance 1: each circle loses a 2pi/3 wedge. *)
  let arcs = Disk_union.boundary_arcs ~radius:1. [| (0., 0.); (1., 0.) |] in
  Alcotest.(check (float 1e-6)) "lens removed"
    (2. *. (Angle.two_pi -. (2. *. Float.pi /. 3.)))
    (total_arc_len arcs);
  (* Every arc midpoint is on the union boundary: on its own circle and
     not strictly inside the other disk. *)
  List.iter
    (fun a ->
      let x, y = Disk_union.arc_sample a in
      Alcotest.(check bool) "sample outside other disks" true
        (((x ** 2.) +. (y ** 2.) >= 1. -. 1e-6)
        && ((x -. 1.) ** 2.) +. (y ** 2.) >= 1. -. 1e-6))
    arcs

let test_union_buried_disk () =
  (* A disk surrounded so tightly that its whole circle lies inside the
     union of the others contributes no boundary arcs. *)
  let centers =
    [| (0., 0.); (0.9, 0.); (-0.9, 0.); (0., 0.9); (0., -0.9) |]
  in
  let arcs = Disk_union.boundary_arcs ~radius:1. centers in
  List.iter
    (fun a ->
      Alcotest.(check bool) "center disk buried" true (a.Disk_union.disk <> 0))
    arcs

(* Centers 1e-10 apart (within [Closed.eps], not equal): each disk
   covers the other's circle, and only the earlier may bury the later,
   so the union keeps one full circle. *)
let test_union_near_coincident () =
  let arcs =
    Disk_union.boundary_arcs ~radius:1. [| (0., 0.); (1e-10, 0.) |]
  in
  Alcotest.(check int) "one arc" 1 (List.length arcs);
  Alcotest.(check (float 1e-9)) "the first disk's full circle" Angle.two_pi
    (total_arc_len arcs);
  Alcotest.(check int) "on disk 0" 0 (List.hd arcs).Disk_union.disk

let test_union_contains () =
  let centers = [| (0., 0.); (3., 0.) |] in
  Alcotest.(check bool) "inside first" true
    (Disk_union.contains ~radius:1. centers (0.5, 0.));
  Alcotest.(check bool) "inside second" true
    (Disk_union.contains ~radius:1. centers (3.2, 0.4));
  Alcotest.(check bool) "between" false
    (Disk_union.contains ~radius:1. centers (1.5, 0.))

let prop_union_boundary_characterization =
  (* A random angle on a random input circle belongs to some union arc of
     that circle iff the corresponding point is not strictly inside any
     other disk. *)
  QCheck.Test.make ~count:300 ~name:"union arcs = uncovered circle portions"
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 10)
           (pair (float_range 0. 5.) (float_range 0. 5.)))
        (float_bound_inclusive 6.28))
    (fun (centers, theta) ->
      let centers = Array.of_list centers in
      let arcs = Disk_union.boundary_arcs ~radius:1. centers in
      let i = 0 in
      let xi, yi = centers.(i) in
      let c = Circle.make ~cx:xi ~cy:yi ~r:1. in
      let px, py = Circle.point_at c theta in
      let strictly_inside =
        Array.exists
          (fun (x, y) ->
            let d2 = ((x -. px) ** 2.) +. ((y -. py) ** 2.) in
            d2 < (1. -. 1e-7) ** 2.)
          centers
      in
      let margin =
        Array.fold_left
          (fun acc (x, y) ->
            let d = sqrt (((x -. px) ** 2.) +. ((y -. py) ** 2.)) in
            Float.min acc (Float.abs (d -. 1.)))
          infinity centers
      in
      let on_arc =
        List.exists
          (fun a ->
            a.Disk_union.disk = i
            && Angle.mem a.Disk_union.ivl theta)
          arcs
      in
      (* skip near-degenerate angles where the point grazes a boundary *)
      margin < 1e-5
      || (* coincident duplicates of disk 0 make "strictly inside" of a
            duplicate false positive; skip those too *)
      Array.exists (fun (x, y) -> (x, y) = (xi, yi) && false) centers
      || Bool.equal on_arc (not strictly_inside))

(* ------------------------------------------------------------------ *)
(* Colored_depth (first algorithm, Lemma 4.2) *)

let test_colored_depth_single () =
  let r = Colored_depth.max_colored_depth ~radius:1. [| (0., 0.) |] ~colors:[| 5 |] in
  Alcotest.(check int) "single disk depth 1" 1 r.Colored_depth.depth

let test_colored_depth_three_colors () =
  let centers = [| (0., 0.); (0.5, 0.); (0., 0.5); (10., 10.) |] in
  let colors = [| 1; 2; 3; 2 |] in
  let r = Colored_depth.max_colored_depth ~radius:1. centers ~colors in
  Alcotest.(check int) "three colors meet" 3 r.Colored_depth.depth;
  Alcotest.(check int) "depth at reported point" 3
    (Colored_disk2d.colored_depth_at ~radius:1. centers ~colors
       r.Colored_depth.x r.Colored_depth.y)

let test_colored_depth_duplicate_color () =
  let centers = [| (0., 0.); (0.2, 0.); (0.4, 0.) |] in
  let colors = [| 9; 9; 9 |] in
  let r = Colored_depth.max_colored_depth ~radius:1. centers ~colors in
  Alcotest.(check int) "one color only" 1 r.Colored_depth.depth

let test_colored_depth_stats_populated () =
  let rng = Rng.create 4 in
  let n = 40 in
  let centers =
    Array.init n (fun _ -> (Rng.uniform rng 0. 6., Rng.uniform rng 0. 6.))
  in
  let colors = Array.init n (fun _ -> Rng.int rng 8) in
  let r = Colored_depth.max_colored_depth ~radius:1. centers ~colors in
  Alcotest.(check bool) "arcs counted" true (r.Colored_depth.stats.Colored_depth.union_arcs > 0);
  Alcotest.(check bool) "circles swept" true
    (r.Colored_depth.stats.Colored_depth.circles_swept > 0)

let test_colored_depth_near_coincident () =
  (* One color, centers 1e-10 apart: were the two to bury each other,
     no circle would be left to sweep (depth [min_int]). *)
  let centers = [| (0., 0.); (1e-10, 0.) |] and colors = [| 3; 3 |] in
  let r = Colored_depth.max_colored_depth ~radius:1. centers ~colors in
  Alcotest.(check int) "depth 1" 1 r.Colored_depth.depth;
  Alcotest.(check int) "depth at reported point" 1
    (Colored_disk2d.colored_depth_at ~radius:1. centers ~colors
       r.Colored_depth.x r.Colored_depth.y)

(* Once the per-domain scratch has grown to a cell, loading it with
   floats that are already boxed and solving it allocate nothing. The
   cell has 60 disks and 40 colors, past both visit-order tables' first
   sizes. *)
let test_colored_depth_cell_words () =
  let module Cell = Colored_depth.Cell in
  let rng = Rng.create 5 in
  let n = 60 in
  let centers =
    Array.init n (fun _ -> (Rng.uniform rng 0. 3., Rng.uniform rng 0. 3.))
  in
  let colors = Array.init n (fun i -> (i mod 40) - 7) in
  let dense = Colored_depth.dense_colors colors in
  Cell.with_scratch @@ fun cell ->
  let solve () =
    Cell.clear cell;
    for i = 0 to n - 1 do
      let x, y = centers.(i) in
      Cell.push cell x y ~color:dense.(i) ~raw:colors.(i)
    done;
    ignore (Sys.opaque_identity (Cell.solve cell ~radius:1.))
  in
  solve ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 10 do
    solve ()
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.)) "minor words over 10 cells" 0. words;
  (* The wrapper, called while this scratch is lent out, works on fresh
     scratch and leaves this one loaded. *)
  let r = Colored_depth.max_colored_depth ~radius:1. centers ~colors in
  Alcotest.(check int) "same depth as the wrapper" r.Colored_depth.depth
    (Cell.solve cell ~radius:1.)

let prop_first_algorithm_matches_naive =
  QCheck.Test.make ~count:200 ~name:"first algorithm = naive colored sweep"
    QCheck.(
      list_of_size (Gen.int_range 1 16)
        (triple (float_range 0. 5.) (float_range 0. 5.) (int_range 0 4)))
    (fun pts ->
      let centers = Array.of_list (List.map (fun (x, y, _) -> (x, y)) pts) in
      let colors = Array.of_list (List.map (fun (_, _, c) -> c) pts) in
      let a = Colored_depth.max_colored_depth ~radius:1. centers ~colors in
      let b = Colored_disk2d.max_colored ~radius:1. centers ~colors in
      a.Colored_depth.depth = b.Colored_disk2d.value)

let prop_first_algorithm_point_achieves_depth =
  QCheck.Test.make ~count:200 ~name:"first algorithm point achieves depth"
    QCheck.(
      list_of_size (Gen.int_range 1 16)
        (triple (float_range 0. 5.) (float_range 0. 5.) (int_range 0 4)))
    (fun pts ->
      let centers = Array.of_list (List.map (fun (x, y, _) -> (x, y)) pts) in
      let colors = Array.of_list (List.map (fun (_, _, c) -> c) pts) in
      let a = Colored_depth.max_colored_depth ~radius:1. centers ~colors in
      Colored_disk2d.colored_depth_at ~radius:1. centers ~colors
        a.Colored_depth.x a.Colored_depth.y
      = a.Colored_depth.depth)

(* ------------------------------------------------------------------ *)
(* Radius scaling of the first algorithm *)

let test_colored_depth_radius_scaling () =
  (* Scaling every center and the radius by the same factor preserves the
     colored depth. *)
  let rng = Rng.create 7 in
  for trial = 1 to 10 do
    let n = 5 + Rng.int rng 20 in
    let centers =
      Array.init n (fun _ -> (Rng.uniform rng 0. 5., Rng.uniform rng 0. 5.))
    in
    let colors = Array.init n (fun _ -> Rng.int rng 5) in
    let base = Colored_depth.max_colored_depth ~radius:1. centers ~colors in
    let lambda = Rng.uniform rng 0.5 4. in
    let scaled = Array.map (fun (x, y) -> (lambda *. x, lambda *. y)) centers in
    let s = Colored_depth.max_colored_depth ~radius:lambda scaled ~colors in
    Alcotest.(check int)
      (Printf.sprintf "trial %d scale %.2f" trial lambda)
      base.Colored_depth.depth s.Colored_depth.depth
  done

let test_colored_depth_large_radius_covers_all_colors () =
  let centers = [| (0., 0.); (1., 1.); (2., 0.); (0., 2.) |] in
  let colors = [| 0; 1; 2; 3 |] in
  let r = Colored_depth.max_colored_depth ~radius:10. centers ~colors in
  Alcotest.(check int) "everything coverable" 4 r.Colored_depth.depth

(* ------------------------------------------------------------------ *)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_union_boundary_characterization;
      prop_first_algorithm_matches_naive;
      prop_first_algorithm_point_achieves_depth;
    ]

let () =
  Alcotest.run "union"
    [
      ( "disk-union",
        [
          Alcotest.test_case "single disk" `Quick test_union_single_disk;
          Alcotest.test_case "disjoint disks" `Quick test_union_disjoint_disks;
          Alcotest.test_case "coincident disks" `Quick test_union_coincident_disks;
          Alcotest.test_case "two overlapping" `Quick test_union_two_overlapping;
          Alcotest.test_case "buried disk" `Quick test_union_buried_disk;
          Alcotest.test_case "containment" `Quick test_union_contains;
          Alcotest.test_case "centers 1e-10 apart" `Quick
            test_union_near_coincident;
        ] );
      ( "colored-depth",
        [
          Alcotest.test_case "single" `Quick test_colored_depth_single;
          Alcotest.test_case "three colors" `Quick test_colored_depth_three_colors;
          Alcotest.test_case "duplicate color" `Quick
            test_colored_depth_duplicate_color;
          Alcotest.test_case "stats populated" `Quick
            test_colored_depth_stats_populated;
          Alcotest.test_case "same-color pair 1e-10 apart" `Quick
            test_colored_depth_near_coincident;
          Alcotest.test_case "cell kernel allocates nothing" `Quick
            test_colored_depth_cell_words;
        ] );
      ( "radius",
        [
          Alcotest.test_case "scaling invariance" `Quick
            test_colored_depth_radius_scaling;
          Alcotest.test_case "large radius covers all" `Quick
            test_colored_depth_large_radius_covers_all_colors;
        ] );
      ("properties", qcheck_cases);
    ]
