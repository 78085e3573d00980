(* Tests for the paper's core algorithms (lib/core): Technique 1 (sample
   space, dynamic/static/colored MaxRS — Theorems 1.1, 1.2, 1.5) and
   Technique 2 (output-sensitive exact + color sampling — Theorems 4.6,
   1.6), plus the workload generators used by the experiments. *)

module Point = Maxrs_geom.Point
module Rng = Maxrs_geom.Rng
module Config = Maxrs.Config
module Cell_heap = Maxrs.Cell_heap
module Sample_space = Maxrs.Sample_space
module Dynamic = Maxrs.Dynamic
module Static = Maxrs.Static
module Colored = Maxrs.Colored
module Output_sensitive = Maxrs.Output_sensitive
module Approx_colored = Maxrs.Approx_colored
module Workload = Maxrs.Workload
module Disk2d = Maxrs_sweep.Disk2d
module Colored_disk2d = Maxrs_sweep.Colored_disk2d
module Guard = Maxrs_resilience.Guard

(* Faithful-shift config at eps = 1/4, small samples: used by most tests. *)
let test_cfg = Config.make ~epsilon:0.25 ~seed:7 ()

(* ------------------------------------------------------------------ *)
(* Config *)

let test_config_validate () =
  Config.validate Config.default;
  Config.validate test_cfg;
  Alcotest.check_raises "epsilon too big"
    (Invalid_argument "Config: epsilon must lie in (0, 1/2)") (fun () ->
      Config.validate (Config.make ~epsilon:0.6 ()));
  Alcotest.check_raises "epsilon zero"
    (Invalid_argument "Config: epsilon must lie in (0, 1/2)") (fun () ->
      Config.validate (Config.make ~epsilon:0. ()));
  Alcotest.check_raises "bad min_samples"
    (Invalid_argument "Config: min_samples must be >= 1") (fun () ->
      Config.validate (Config.make ~min_samples:0 ()))

let test_config_samples_scale () =
  let cfg = Config.make ~epsilon:0.25 ~sample_constant:1. ~min_samples:1 () in
  let t1 = Config.samples_per_cell cfg ~n:100 in
  let t2 = Config.samples_per_cell cfg ~n:10000 in
  Alcotest.(check bool) "grows with log n" true (t2 > t1);
  let cfg2 = Config.make ~epsilon:0.125 ~sample_constant:1. ~min_samples:1 () in
  Alcotest.(check bool) "grows with eps^-2" true
    (Config.samples_per_cell cfg2 ~n:100 > t1)

let test_config_geometry () =
  let cfg = Config.make ~epsilon:0.25 () in
  (* s = 2 eps / sqrt d, so the cell circumradius s sqrt d / 2 = eps. *)
  List.iter
    (fun dim ->
      let s = Config.grid_side cfg ~dim in
      Alcotest.(check (float 1e-9)) "circumradius = eps" 0.25
        (s *. sqrt (float_of_int dim) /. 2.))
    [ 1; 2; 3; 5 ];
  Alcotest.(check (float 1e-9)) "delta = eps^2" 0.0625 (Config.grid_delta cfg)

(* ------------------------------------------------------------------ *)
(* Cell_heap *)

(* One grid and a coarse epsilon: a unit ball touches a handful of
   cells, and balls 10 apart touch disjoint ones. *)
let heap_cfg = Config.make ~epsilon:0.45 ~max_grid_shifts:(Some 1) ~seed:3 ()

(* What the hook saw happen to cells already in the heap, by kind. *)
type heap_moves = {
  mutable raised : int;
  mutable lowered : int;
  mutable removed_mid : int;
  mutable removed_last : int;
}

(* Every slot points back at itself and every parent precedes its
   children. *)
let check_order what heap =
  for i = 0 to Cell_heap.length heap - 1 do
    let c = Cell_heap.cell_at heap i in
    Alcotest.(check int) (what ^ ": slot back-pointer") i
      (Sample_space.cell_slot c);
    if i > 0 then
      Alcotest.(check bool) (what ^ ": parent first") true
        (Cell_heap.precedes (Cell_heap.cell_at heap ((i - 1) / 2)) c)
  done

(* A one-grid space whose hook feeds a heap, classifies each move before
   it is made and checks the order after it. *)
let heap_space () =
  let space = Sample_space.create ~dim:2 ~cfg:heap_cfg ~expected_n:8 in
  let heap = Cell_heap.create () in
  let moves = { raised = 0; lowered = 0; removed_mid = 0; removed_last = 0 } in
  let seen = Hashtbl.create 64 in
  Sample_space.on_cell_change space (fun c ->
      let uid = Sample_space.cell_uid c and d = Sample_space.cell_max c in
      let slot = Sample_space.cell_slot c and len = Cell_heap.length heap in
      (if slot >= 0 then
         let before = Hashtbl.find seen uid in
         if d <= 0. then begin
           if slot = len - 1 then moves.removed_last <- moves.removed_last + 1
           else if slot > 0 then moves.removed_mid <- moves.removed_mid + 1
         end
         else if d > before then moves.raised <- moves.raised + 1
         else if d < before then moves.lowered <- moves.lowered + 1);
      Hashtbl.replace seen uid d;
      Cell_heap.update heap c;
      check_order "after a move" heap);
  (space, heap, moves)

(* Between ops the heap holds exactly the live cells with a positive
   max, and its top is the brute-force first cell: deepest, then
   smallest uid. *)
let check_heap what space heap =
  check_order what heap;
  let n = Cell_heap.length heap in
  let positive = ref 0 and first = ref None in
  Sample_space.iter_live_cells space (fun c ->
      let d = Sample_space.cell_max c and slot = Sample_space.cell_slot c in
      if d > 0. then begin
        incr positive;
        Alcotest.(check bool) (what ^ ": in the heap") true
          (slot >= 0 && Cell_heap.cell_at heap slot == c);
        match !first with
        | Some b
          when Sample_space.cell_max b > d
               || (Sample_space.cell_max b = d
                  && Sample_space.cell_uid b < Sample_space.cell_uid c) ->
            ()
        | _ -> first := Some c
      end
      else Alcotest.(check int) (what ^ ": out of the heap") (-1) slot);
  Alcotest.(check int) (what ^ ": one slot per positive cell") !positive n;
  Alcotest.(check bool) (what ^ ": top") true
    (match (!first, Cell_heap.top heap) with
    | None, None -> true
    | Some a, Some b -> a == b
    | _ -> false)

let test_cell_heap_moves () =
  let space, heap, moves = heap_space () in
  let a = [| 0.; 0. |] and b = [| 10.; 0. |] and c = [| 20.; 0. |] in
  let step what f =
    f ();
    check_heap what space heap
  in
  step "insert a" (fun () -> Sample_space.insert space ~center:a ~weight:1.);
  step "insert b" (fun () -> Sample_space.insert space ~center:b ~weight:2.);
  step "insert c" (fun () -> Sample_space.insert space ~center:c ~weight:3.);
  (* The same center again: every positive cell of [a] is raised past
     the cells of [b] and [c]. *)
  step "raise a" (fun () -> Sample_space.insert space ~center:a ~weight:5.);
  Alcotest.(check (float 0.)) "a on top" 6.
    (Sample_space.cell_max (Option.get (Cell_heap.top heap)));
  step "lower a" (fun () -> Sample_space.delete space ~center:a ~weight:5.);
  Alcotest.(check (float 0.)) "c on top" 3.
    (Sample_space.cell_max (Option.get (Cell_heap.top heap)));
  step "drop b" (fun () -> Sample_space.delete space ~center:b ~weight:2.);
  step "drop c" (fun () -> Sample_space.delete space ~center:c ~weight:3.);
  step "drop a" (fun () -> Sample_space.delete space ~center:a ~weight:1.);
  Alcotest.(check int) "empty" 0 (Cell_heap.length heap);
  Alcotest.(check bool) "raised in place" true (moves.raised > 0);
  Alcotest.(check bool) "lowered in place" true (moves.lowered > 0);
  Alcotest.(check bool) "removed a middle slot" true (moves.removed_mid > 0);
  Alcotest.(check bool) "removed the last slot" true (moves.removed_last > 0)

let test_cell_heap_uid_ties () =
  (* Two balls of one weight far apart: every positive cell has the
     same max, so the uid alone orders them. *)
  let space, heap, _ = heap_space () in
  Sample_space.insert space ~center:[| 0.; 0. |] ~weight:2.;
  Sample_space.insert space ~center:[| 10.; 0. |] ~weight:2.;
  check_heap "equal depths" space heap;
  let uids = ref [] in
  Sample_space.iter_live_cells space (fun c ->
      if Sample_space.cell_max c > 0. then
        uids := Sample_space.cell_uid c :: !uids);
  Alcotest.(check bool) "several tied cells" true (List.length !uids > 2);
  Alcotest.(check int) "smallest uid on top"
    (List.fold_left Int.min max_int !uids)
    (Sample_space.cell_uid (Option.get (Cell_heap.top heap)))

(* ------------------------------------------------------------------ *)
(* Sample_space *)

let test_sample_space_insert_delete_symmetry () =
  let space = Sample_space.create ~dim:2 ~cfg:test_cfg ~expected_n:10 in
  Alcotest.(check int) "starts empty" 0 (Sample_space.cell_count space);
  let c1 = [| 0.; 0. |] and c2 = [| 0.3; 0.1 |] in
  Sample_space.insert space ~center:c1 ~weight:2.;
  let cells_after_one = Sample_space.cell_count space in
  Alcotest.(check bool) "cells materialized" true (cells_after_one > 0);
  Sample_space.insert space ~center:c2 ~weight:3.;
  (match Sample_space.best space with
  | Some s -> Alcotest.(check (float 1e-9)) "both balls seen" 5. s.Sample_space.depth
  | None -> Alcotest.fail "expected a sample");
  Sample_space.delete space ~center:c2 ~weight:3.;
  (match Sample_space.best space with
  | Some s -> Alcotest.(check (float 1e-9)) "back to one" 2. s.Sample_space.depth
  | None -> Alcotest.fail "expected a sample");
  Sample_space.delete space ~center:c1 ~weight:2.;
  Alcotest.(check int) "all cells dropped" 0 (Sample_space.cell_count space)

let test_sample_space_depth_undercounts_never_over () =
  (* Maintained depth of every sample is at most its true depth. *)
  let rng = Rng.create 5 in
  let space = Sample_space.create ~dim:2 ~cfg:test_cfg ~expected_n:30 in
  let centers =
    Array.init 30 (fun _ -> [| Rng.uniform rng 0. 4.; Rng.uniform rng 0. 4. |])
  in
  Array.iter (fun c -> Sample_space.insert space ~center:c ~weight:1.) centers;
  Sample_space.iter_samples space (fun s ->
      let true_depth =
        Array.fold_left
          (fun acc c ->
            if Point.dist2 s.Sample_space.pos c <= 1. +. 1e-9 then acc +. 1.
            else acc)
          0. centers
      in
      Alcotest.(check bool) "maintained <= true" true
        (s.Sample_space.depth <= true_depth +. 1e-9))

let test_sample_space_hook_fires () =
  let space = Sample_space.create ~dim:2 ~cfg:test_cfg ~expected_n:10 in
  let fired = ref 0 in
  Sample_space.on_cell_change space (fun c ->
      incr fired;
      Alcotest.(check bool) "cell max positive" true
        (Sample_space.cell_max c > 0.);
      Alcotest.(check bool) "best sample consistent" true
        ((Sample_space.cell_best space c).Sample_space.depth
         = Sample_space.cell_max c));
  Sample_space.insert space ~center:[| 0.; 0. |] ~weight:1.;
  Alcotest.(check bool) "hook fired on insert" true (!fired > 0)

(* ------------------------------------------------------------------ *)
(* Dynamic MaxRS (Theorem 1.1) *)

let test_dynamic_cluster_exact () =
  (* k coincident unit balls: some circumsphere sample lies within
     distance 1 of the shared center, so the maintained best is exactly
     k. *)
  let d = Dynamic.create ~cfg:test_cfg ~dim:2 () in
  let k = 15 in
  for _ = 1 to k do
    ignore (Dynamic.insert d [| 2.; 3. |])
  done;
  match Dynamic.best d with
  | Some (p, v) ->
      Alcotest.(check (float 1e-9)) "depth = k" (float_of_int k) v;
      Alcotest.(check bool) "point near cluster" true
        (Point.dist p [| 2.; 3. |] <= 1.)
  | None -> Alcotest.fail "expected a best placement"

let test_dynamic_insert_delete_roundtrip () =
  let d = Dynamic.create ~cfg:test_cfg ~dim:2 () in
  let handles = List.init 10 (fun i -> Dynamic.insert d [| float_of_int i *. 0.05; 0. |]) in
  Alcotest.(check int) "size" 10 (Dynamic.size d);
  List.iter (Dynamic.delete d) handles;
  Alcotest.(check int) "empty again" 0 (Dynamic.size d);
  Alcotest.(check bool) "no best when empty" true (Dynamic.best d = None)

let test_dynamic_delete_unknown () =
  let d = Dynamic.create ~cfg:test_cfg ~dim:2 () in
  let h = Dynamic.insert d [| 0.; 0. |] in
  Dynamic.delete d h;
  Alcotest.check_raises "double delete" Not_found (fun () -> Dynamic.delete d h)

let test_dynamic_epochs_trigger () =
  let d = Dynamic.create ~cfg:test_cfg ~dim:2 () in
  let rng = Rng.create 3 in
  for _ = 1 to 100 do
    ignore (Dynamic.insert d [| Rng.uniform rng 0. 3.; Rng.uniform rng 0. 3. |])
  done;
  Alcotest.(check bool) "epochs advanced" true (Dynamic.epochs d > 0);
  Alcotest.(check int) "size tracked" 100 (Dynamic.size d)

let test_dynamic_tracks_moving_hotspot () =
  (* Insert cluster A, then delete it while inserting cluster B: the best
     placement must follow. *)
  let d = Dynamic.create ~cfg:test_cfg ~dim:2 () in
  let a = List.init 12 (fun _ -> Dynamic.insert d [| 0.; 0. |]) in
  (match Dynamic.best d with
  | Some (p, _) ->
      Alcotest.(check bool) "near A" true (Point.dist p [| 0.; 0. |] <= 1.)
  | None -> Alcotest.fail "best after A");
  List.iter
    (fun h ->
      Dynamic.delete d h;
      ignore (Dynamic.insert d [| 40.; 40. |]))
    a;
  match Dynamic.best d with
  | Some (p, v) ->
      Alcotest.(check (float 1e-9)) "new hotspot depth" 12. v;
      Alcotest.(check bool) "near B" true (Point.dist p [| 40.; 40. |] <= 1.)
  | None -> Alcotest.fail "best after move"

let test_dynamic_weighted () =
  let d = Dynamic.create ~cfg:test_cfg ~dim:2 () in
  ignore (Dynamic.insert d ~weight:5. [| 0.; 0. |]);
  ignore (Dynamic.insert d ~weight:2.5 [| 0.1; 0. |]);
  match Dynamic.best d with
  | Some (_, v) -> Alcotest.(check (float 1e-9)) "weights add" 7.5 v
  | None -> Alcotest.fail "expected best"

let test_dynamic_radius_scaling () =
  (* Two points at distance 4 are jointly coverable by a ball of radius
     2.5 but not radius 1. *)
  let d = Dynamic.create ~cfg:test_cfg ~radius:2.5 ~dim:2 () in
  ignore (Dynamic.insert d [| 0.; 0. |]);
  ignore (Dynamic.insert d [| 4.; 0. |]);
  match Dynamic.best d with
  | Some (_, v) -> Alcotest.(check (float 1e-9)) "covers both" 2. v
  | None -> Alcotest.fail "expected best"

let test_dynamic_planted_ratio () =
  let rng = Rng.create 11 in
  let pts, _center, opt = Workload.planted rng ~dim:2 ~n:60 ~opt:20 in
  let d = Dynamic.create ~cfg:test_cfg ~dim:2 () in
  Array.iter (fun (p, w) -> ignore (Dynamic.insert d ~weight:w p)) pts;
  match Dynamic.best d with
  | Some (_, v) ->
      Alcotest.(check bool) "at most opt" true (v <= opt +. 1e-9);
      (* guarantee is (1/2 - eps); the planted cluster is tight so we in
         fact recover it exactly *)
      Alcotest.(check (float 1e-9)) "recovers planted opt" opt v
  | None -> Alcotest.fail "expected best"

(* ------------------------------------------------------------------ *)
(* Static MaxRS (Theorem 1.2) *)

let test_static_planted_2d () =
  let rng = Rng.create 13 in
  let pts, _, opt = Workload.planted rng ~dim:2 ~n:80 ~opt:25 in
  let r = Static.solve_or_point ~cfg:test_cfg ~dim:2 pts in
  Alcotest.(check (float 1e-9)) "planted recovered" opt r.Static.value

let test_static_planted_3d () =
  let rng = Rng.create 17 in
  let pts, _, opt = Workload.planted rng ~dim:3 ~n:40 ~opt:15 in
  let cfg = Config.make ~epsilon:0.3 ~max_grid_shifts:(Some 20) ~seed:1 () in
  let r = Static.solve_or_point ~cfg ~dim:3 pts in
  Alcotest.(check (float 1e-9)) "planted recovered in 3d" opt r.Static.value

let test_static_ratio_vs_exact_2d () =
  (* Random uniform instance: compare against the exact disk sweep. The
     w.h.p. guarantee is (1/2 - eps); empirically the ratio is much
     higher, we assert the theorem's bound. *)
  let rng = Rng.create 19 in
  for trial = 1 to 5 do
    let n = 40 in
    let pts =
      Array.init n (fun _ ->
          ([| Rng.uniform rng 0. 5.; Rng.uniform rng 0. 5. |], 1.))
    in
    let exact =
      Disk2d.max_weight ~radius:1.
        (Array.map (fun (p, w) -> (p.(0), p.(1), w)) pts)
    in
    let cfg = Config.make ~epsilon:0.25 ~seed:trial () in
    let r = Static.solve_or_point ~cfg ~dim:2 pts in
    let ratio = r.Static.value /. exact.Disk2d.value in
    Alcotest.(check bool)
      (Printf.sprintf "trial %d ratio %.2f >= 1/2 - eps" trial ratio)
      true
      (ratio >= 0.25 && ratio <= 1. +. 1e-9)
  done

let test_static_value_achievable () =
  (* The reported value must be witnessed by the reported center. *)
  let rng = Rng.create 23 in
  let n = 50 in
  let pts =
    Array.init n (fun _ ->
        ([| Rng.uniform rng 0. 5.; Rng.uniform rng 0. 5. |], Rng.uniform rng 0.5 2.))
  in
  let r = Static.solve_or_point ~cfg:test_cfg ~dim:2 pts in
  let covered =
    Array.fold_left
      (fun acc (p, w) ->
        if Point.dist2 p r.Static.center <= 1. +. 1e-9 then acc +. w else acc)
      0. pts
  in
  Alcotest.(check bool) "achievable" true (covered >= r.Static.value -. 1e-6)

let test_static_empty_and_single () =
  Alcotest.(check bool) "empty -> None" true
    (Static.solve ~cfg:test_cfg ~dim:2 [||] = None);
  let r = Static.solve_or_point ~cfg:test_cfg ~dim:2 [| ([| 1.; 1. |], 3.) |] in
  Alcotest.(check (float 1e-9)) "single point" 3. r.Static.value

let test_static_rejects_negative_weight () =
  (match Static.solve ~cfg:test_cfg ~dim:2 [| ([| 0.; 0. |], -1.) |] with
  | _ -> Alcotest.fail "negative weight accepted"
  | exception
      Guard.Error (Guard.Invalid_input { field = "points"; index = Some 0; _ })
    -> ());
  match Static.solve_checked ~cfg:test_cfg ~dim:2 [| ([| 0.; 0. |], -1.) |] with
  | Error (Guard.Invalid_input { field = "points"; index = Some 0; _ }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Guard.to_string e)
  | Ok _ -> Alcotest.fail "negative weight accepted (checked)"

(* ------------------------------------------------------------------ *)
(* Colored MaxRS (Theorem 1.5) *)

let test_colored_planted () =
  let rng = Rng.create 29 in
  let pts, colors, _, opt = Workload.planted_colored rng ~n:60 ~opt:18 in
  let points = Array.map (fun (x, y) -> [| x; y |]) pts in
  let r = Colored.solve_or_point ~cfg:test_cfg ~dim:2 points ~colors in
  Alcotest.(check int) "planted colored opt" opt r.Colored.value

let test_colored_duplicates_not_double_counted () =
  (* Many balls of one color plus one of another: colored opt is 2. *)
  let points =
    Array.init 10 (fun i -> [| float_of_int i *. 0.01; 0. |])
  in
  let colors = Array.make 10 3 in
  colors.(9) <- 4;
  let r = Colored.solve_or_point ~cfg:test_cfg ~dim:2 points ~colors in
  Alcotest.(check int) "two colors" 2 r.Colored.value

let test_colored_ratio_vs_exact () =
  let rng = Rng.create 31 in
  for trial = 1 to 3 do
    let pts, colors =
      Workload.trajectories rng ~m:6 ~steps:8 ~extent:6. ~step:0.5
    in
    let exact = Colored_disk2d.max_colored ~radius:1. pts ~colors in
    let points = Array.map (fun (x, y) -> [| x; y |]) pts in
    let cfg = Config.make ~epsilon:0.25 ~seed:(100 + trial) () in
    let r = Colored.solve_or_point ~cfg ~dim:2 points ~colors in
    let ratio =
      float_of_int r.Colored.value /. float_of_int exact.Colored_disk2d.value
    in
    Alcotest.(check bool)
      (Printf.sprintf "trial %d colored ratio %.2f" trial ratio)
      true
      (ratio >= 0.25 && ratio <= 1.)
  done

let test_colored_rejects_negative_color () =
  match
    Colored.solve ~cfg:test_cfg ~dim:2 [| [| 0.; 0. |] |] ~colors:[| -1 |]
  with
  | _ -> Alcotest.fail "negative color accepted"
  | exception
      Guard.Error (Guard.Invalid_input { field = "colors"; index = Some 0; _ })
    -> ()

(* ------------------------------------------------------------------ *)
(* Output-sensitive exact (Theorem 4.6) *)

let prop_output_sensitive_exact =
  QCheck.Test.make ~count:60 ~name:"output-sensitive = naive exact"
    QCheck.(
      list_of_size (Gen.int_range 1 14)
        (triple (float_range 0. 4.) (float_range 0. 4.) (int_range 0 4)))
    (fun tris ->
      let pts = Array.of_list (List.map (fun (x, y, _) -> (x, y)) tris) in
      let colors = Array.of_list (List.map (fun (_, _, c) -> c) tris) in
      let a = Output_sensitive.solve pts ~colors in
      let b = Colored_disk2d.max_colored ~radius:1. pts ~colors in
      a.Output_sensitive.depth = b.Colored_disk2d.value)

let test_output_sensitive_planted () =
  let rng = Rng.create 37 in
  let pts, colors, _, opt = Workload.planted_colored rng ~n:40 ~opt:12 in
  let r = Output_sensitive.solve pts ~colors in
  Alcotest.(check int) "planted opt" opt r.Output_sensitive.depth

let test_output_sensitive_radius () =
  (* Radius scaling: two distant points coverable only by the larger
     radius. *)
  let pts = [| (0., 0.); (4., 0.) |] and colors = [| 0; 1 |] in
  let r1 = Output_sensitive.solve ~radius:1. pts ~colors in
  let r2 = Output_sensitive.solve ~radius:2.5 pts ~colors in
  Alcotest.(check int) "radius 1" 1 r1.Output_sensitive.depth;
  Alcotest.(check int) "radius 2.5" 2 r2.Output_sensitive.depth

let test_output_sensitive_stats () =
  let rng = Rng.create 41 in
  let pts, colors =
    Workload.trajectories rng ~m:5 ~steps:10 ~extent:5. ~step:0.4
  in
  let r = Output_sensitive.solve pts ~colors in
  Alcotest.(check int) "faithful shifts" 36 r.Output_sensitive.stats.Output_sensitive.shifts;
  Alcotest.(check bool) "cells processed" true
    (r.Output_sensitive.stats.Output_sensitive.cells_processed > 0)

(* ------------------------------------------------------------------ *)
(* (1 - eps) colored (Theorem 1.6) *)

let test_approx_colored_planted () =
  let rng = Rng.create 43 in
  let pts, colors, _, opt = Workload.planted_colored rng ~n:50 ~opt:15 in
  let r = Approx_colored.solve pts ~colors in
  Alcotest.(check bool) "within (1 - eps) of opt" true
    (float_of_int r.Approx_colored.depth >= 0.75 *. float_of_int opt);
  Alcotest.(check bool) "at most opt" true (r.Approx_colored.depth <= opt)

let test_approx_colored_vs_exact_random () =
  let rng = Rng.create 47 in
  for trial = 1 to 3 do
    let pts, colors =
      Workload.trajectories rng ~m:8 ~steps:8 ~extent:5. ~step:0.4
    in
    let exact = Colored_disk2d.max_colored ~radius:1. pts ~colors in
    let r = Approx_colored.solve ~seed:trial pts ~colors in
    Alcotest.(check bool)
      (Printf.sprintf "trial %d: %d vs exact %d" trial r.Approx_colored.depth
         exact.Colored_disk2d.value)
      true
      (float_of_int r.Approx_colored.depth
       >= 0.7 *. float_of_int exact.Colored_disk2d.value
      && r.Approx_colored.depth <= exact.Colored_disk2d.value)
  done

let test_approx_colored_small_uses_exact () =
  let pts = [| (0., 0.); (0.5, 0.); (3., 3.) |] and colors = [| 0; 1; 2 |] in
  let r = Approx_colored.solve pts ~colors in
  (match r.Approx_colored.strategy with
  | Approx_colored.Exact_small -> ()
  | Approx_colored.Sampled _ -> Alcotest.fail "tiny instance should run exact");
  Alcotest.(check int) "exact depth" 2 r.Approx_colored.depth

let test_approx_colored_sampling_kicks_in () =
  (* Large opt forces the sampled path: many distinct colors stacked in
     one spot. *)
  let rng = Rng.create 53 in
  let opt = 400 in
  let pts, colors, _, _ = Workload.planted_colored rng ~n:450 ~opt in
  let r = Approx_colored.solve ~epsilon:0.3 pts ~colors in
  (match r.Approx_colored.strategy with
  | Approx_colored.Sampled { lambda; disks_sampled; colors_sampled = _ } ->
      Alcotest.(check bool) "lambda < 1" true (lambda < 1.);
      Alcotest.(check bool) "subsampled" true (disks_sampled < 450)
  | Approx_colored.Exact_small -> Alcotest.fail "expected sampling path");
  Alcotest.(check bool) "still near-optimal" true
    (float_of_int r.Approx_colored.depth >= 0.7 *. float_of_int opt)

(* ------------------------------------------------------------------ *)
(* Determinism: fixed seeds must give identical results end to end. *)

let test_determinism_static_and_colored () =
  let rng = Rng.create 83 in
  let pts =
    Array.init 60 (fun _ ->
        ([| Rng.uniform rng 0. 5.; Rng.uniform rng 0. 5. |], Rng.uniform rng 0.5 2.))
  in
  let cfg = Config.make ~epsilon:0.3 ~max_grid_shifts:(Some 8) ~seed:99 () in
  let a = Static.solve_or_point ~cfg ~dim:2 pts in
  let b = Static.solve_or_point ~cfg ~dim:2 pts in
  Alcotest.(check (float 0.)) "same value" a.Static.value b.Static.value;
  Alcotest.(check bool) "same center" true
    (Point.equal a.Static.center b.Static.center);
  let centers = Array.map (fun (p, _) -> p) pts in
  let colors = Array.init 60 (fun i -> i mod 9) in
  let c1 = Colored.solve_or_point ~cfg ~dim:2 centers ~colors in
  let c2 = Colored.solve_or_point ~cfg ~dim:2 centers ~colors in
  Alcotest.(check int) "colored deterministic" c1.Colored.value c2.Colored.value

let test_determinism_approx_colored () =
  let rng = Rng.create 89 in
  let pts, colors =
    Workload.trajectories rng ~m:6 ~steps:10 ~extent:5. ~step:0.4
  in
  let a = Approx_colored.solve ~seed:7 pts ~colors in
  let b = Approx_colored.solve ~seed:7 pts ~colors in
  Alcotest.(check int) "same depth" a.Approx_colored.depth b.Approx_colored.depth;
  Alcotest.(check (float 0.)) "same x" a.Approx_colored.x b.Approx_colored.x

(* ------------------------------------------------------------------ *)
(* Workload generators *)

let test_workload_planted_geometry () =
  let rng = Rng.create 59 in
  let pts, center, opt = Workload.planted rng ~dim:2 ~n:30 ~opt:10 in
  Alcotest.(check int) "count" 30 (Array.length pts);
  Alcotest.(check (float 1e-9)) "opt value" 10. opt;
  (* Cluster points lie within 0.2 of the center; background points are
     pairwise farther than 2 and far from the cluster. *)
  let cluster, background =
    Array.to_list pts
    |> List.partition (fun (p, _) -> Point.dist p center <= 0.2 +. 1e-9)
  in
  Alcotest.(check int) "cluster size" 10 (List.length cluster);
  List.iter
    (fun (p, _) ->
      List.iter
        (fun (q, _) ->
          if p != q then
            Alcotest.(check bool) "background isolated" true
              (Point.dist p q > 2.))
        background)
    background

let test_workload_trajectories_shape () =
  let rng = Rng.create 61 in
  let pts, colors = Workload.trajectories rng ~m:4 ~steps:7 ~extent:5. ~step:0.3 in
  Alcotest.(check int) "points" 28 (Array.length pts);
  Alcotest.(check int) "colors" 28 (Array.length colors);
  let distinct = List.sort_uniq compare (Array.to_list colors) in
  Alcotest.(check (list int)) "trajectory ids" [ 0; 1; 2; 3 ] distinct;
  Array.iter
    (fun (x, y) ->
      Alcotest.(check bool) "in extent" true
        (x >= 0. && x <= 5. && y >= 0. && y <= 5.))
    pts

let test_workload_duplicates () =
  let rng = Rng.create 67 in
  let pts = [| (0., 0.); (1., 1.) |] and colors = [| 0; 1 |] in
  let pts', colors' =
    Workload.with_duplicate_colors rng pts colors ~copies:5 ~jitter:0.01
  in
  Alcotest.(check int) "5x points" 10 (Array.length pts');
  Alcotest.(check int) "colors preserved" 5
    (Array.fold_left (fun acc c -> if c = 0 then acc + 1 else acc) 0 colors')

let test_workload_uniform_bounds () =
  let rng = Rng.create 71 in
  let pts = Workload.uniform rng ~dim:3 ~n:100 ~extent:2. in
  Array.iter
    (fun p ->
      Array.iter
        (fun c -> Alcotest.(check bool) "in box" true (c >= 0. && c < 2.))
        p)
    pts;
  let wpts = Workload.uniform_weighted rng ~dim:2 ~n:50 ~extent:1. ~max_weight:3. in
  Array.iter
    (fun (_, w) ->
      Alcotest.(check bool) "weight in range" true (w > 0. && w <= 3.))
    wpts

(* ------------------------------------------------------------------ *)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_output_sensitive_exact ]

let () =
  Alcotest.run "core"
    [
      ( "config",
        [
          Alcotest.test_case "validation" `Quick test_config_validate;
          Alcotest.test_case "sample scaling" `Quick test_config_samples_scale;
          Alcotest.test_case "grid geometry" `Quick test_config_geometry;
        ] );
      ( "cell-heap",
        [
          Alcotest.test_case "raise, lower and remove in place" `Quick
            test_cell_heap_moves;
          Alcotest.test_case "equal depths ordered by uid" `Quick
            test_cell_heap_uid_ties;
        ] );
      ( "sample-space",
        [
          Alcotest.test_case "insert/delete symmetry" `Quick
            test_sample_space_insert_delete_symmetry;
          Alcotest.test_case "maintained depth never overcounts" `Quick
            test_sample_space_depth_undercounts_never_over;
          Alcotest.test_case "depth-change hook" `Quick test_sample_space_hook_fires;
        ] );
      ( "dynamic",
        [
          Alcotest.test_case "coincident cluster exact" `Quick
            test_dynamic_cluster_exact;
          Alcotest.test_case "insert/delete roundtrip" `Quick
            test_dynamic_insert_delete_roundtrip;
          Alcotest.test_case "delete unknown handle" `Quick test_dynamic_delete_unknown;
          Alcotest.test_case "epochs trigger" `Quick test_dynamic_epochs_trigger;
          Alcotest.test_case "tracks moving hotspot" `Quick
            test_dynamic_tracks_moving_hotspot;
          Alcotest.test_case "weighted inserts" `Quick test_dynamic_weighted;
          Alcotest.test_case "radius scaling" `Quick test_dynamic_radius_scaling;
          Alcotest.test_case "planted ratio" `Quick test_dynamic_planted_ratio;
        ] );
      ( "static",
        [
          Alcotest.test_case "planted 2d" `Quick test_static_planted_2d;
          Alcotest.test_case "planted 3d (capped shifts)" `Quick
            test_static_planted_3d;
          Alcotest.test_case "ratio vs exact" `Quick test_static_ratio_vs_exact_2d;
          Alcotest.test_case "value achievable" `Quick test_static_value_achievable;
          Alcotest.test_case "empty and single" `Quick test_static_empty_and_single;
          Alcotest.test_case "rejects negative weights" `Quick
            test_static_rejects_negative_weight;
        ] );
      ( "colored",
        [
          Alcotest.test_case "planted" `Quick test_colored_planted;
          Alcotest.test_case "duplicates count once" `Quick
            test_colored_duplicates_not_double_counted;
          Alcotest.test_case "ratio vs exact" `Quick test_colored_ratio_vs_exact;
          Alcotest.test_case "rejects negative colors" `Quick
            test_colored_rejects_negative_color;
        ] );
      ( "output-sensitive",
        [
          Alcotest.test_case "planted" `Quick test_output_sensitive_planted;
          Alcotest.test_case "radius scaling" `Quick test_output_sensitive_radius;
          Alcotest.test_case "stats" `Quick test_output_sensitive_stats;
        ] );
      ( "approx-colored",
        [
          Alcotest.test_case "planted" `Quick test_approx_colored_planted;
          Alcotest.test_case "vs exact random" `Quick
            test_approx_colored_vs_exact_random;
          Alcotest.test_case "small instances run exact" `Quick
            test_approx_colored_small_uses_exact;
          Alcotest.test_case "sampling kicks in" `Quick
            test_approx_colored_sampling_kicks_in;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "static and colored" `Quick
            test_determinism_static_and_colored;
          Alcotest.test_case "approx colored" `Quick
            test_determinism_approx_colored;
        ] );
      ( "workload",
        [
          Alcotest.test_case "planted geometry" `Quick test_workload_planted_geometry;
          Alcotest.test_case "trajectories" `Quick test_workload_trajectories_shape;
          Alcotest.test_case "duplicate colors" `Quick test_workload_duplicates;
          Alcotest.test_case "uniform bounds" `Quick test_workload_uniform_bounds;
        ] );
      ("properties", qcheck_cases);
    ]
