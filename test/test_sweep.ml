(* Tests for the exact baselines (lib/sweep): segment tree, 1-D interval
   sweep, rectangle sweep, disk angular sweeps — all cross-checked against
   brute force. *)

module Rng = Maxrs_geom.Rng
module Segment_tree = Maxrs_sweep.Segment_tree
module Interval1d = Maxrs_sweep.Interval1d
module Rect2d = Maxrs_sweep.Rect2d
module Disk2d = Maxrs_sweep.Disk2d
module Colored_disk2d = Maxrs_sweep.Colored_disk2d
module Brute = Maxrs_sweep.Brute

let check_float = Alcotest.(check (float 1e-9))
let check_floatish = Alcotest.(check (float 1e-6))

(* ------------------------------------------------------------------ *)
(* Segment tree *)

let test_segtree_basic () =
  let t = Segment_tree.create 8 in
  check_float "empty max" 0. (Segment_tree.max_all t);
  Segment_tree.range_add t 2 5 3.;
  check_float "after add" 3. (Segment_tree.max_all t);
  Alcotest.(check bool) "argmax in range" true
    (let i = Segment_tree.argmax t in
     2 <= i && i < 5);
  Segment_tree.range_add t 4 8 2.;
  check_float "overlap" 5. (Segment_tree.max_all t);
  Alcotest.(check int) "argmax at overlap" 4 (Segment_tree.argmax t);
  Segment_tree.range_add t 0 8 (-1.);
  check_float "global sub" 4. (Segment_tree.max_all t);
  check_float "leaf value" 4. (Segment_tree.value_at t 4);
  check_float "leaf value 2" 2. (Segment_tree.value_at t 2);
  check_float "leaf value 0" (-1.) (Segment_tree.value_at t 0)

let test_segtree_clamping () =
  let t = Segment_tree.create 4 in
  Segment_tree.range_add t (-5) 100 1.;
  check_float "clamped add" 1. (Segment_tree.max_all t);
  Segment_tree.range_add t 3 3 10.;
  check_float "empty range ignored" 1. (Segment_tree.max_all t)

let test_segtree_non_pow2 () =
  let t = Segment_tree.create 5 in
  Segment_tree.range_add t 4 5 7.;
  check_float "last leaf" 7. (Segment_tree.max_all t);
  Alcotest.(check int) "argmax last" 4 (Segment_tree.argmax t)

let prop_segtree_vs_naive =
  QCheck.Test.make ~count:300 ~name:"segment tree matches naive array"
    QCheck.(
      pair (int_range 1 40)
        (small_list (triple (int_range 0 45) (int_range 0 45) (float_range (-5.) 5.))))
    (fun (n, ops) ->
      let t = Segment_tree.create n in
      let a = Array.make n 0. in
      List.iter
        (fun (l, r, v) ->
          let l = min l r and r = max l r in
          Segment_tree.range_add t l r v;
          for i = max 0 l to min (n - 1) (r - 1) do
            a.(i) <- a.(i) +. v
          done)
        ops;
      let naive_max = Array.fold_left Float.max neg_infinity a in
      let ok_max = Float.abs (Segment_tree.max_all t -. naive_max) < 1e-9 in
      let am = Segment_tree.argmax t in
      let ok_arg = Float.abs (a.(am) -. naive_max) < 1e-9 in
      let ok_vals =
        Array.for_all Fun.id
          (Array.init n (fun i ->
               Float.abs (Segment_tree.value_at t i -. a.(i)) < 1e-9))
      in
      ok_max && ok_arg && ok_vals)

(* ------------------------------------------------------------------ *)
(* Eytzinger tree vs the pointer-node reference. The reference below is
   the classic recursive lazy tree with explicit child pointers, using
   exactly the float operations of the original recursive
   implementation — one [+. v] on each covered node, winner child
   [+. lzy] on each partial node (ties to the left), top-down lazy
   accumulation for leaf reads. The production tree must match it bit
   for bit on random update/query interleavings, including stacked lazy
   adds and full-range updates. *)

module Ref_tree = struct
  type node =
    | Leaf of { leaf : int; mutable maxv : float }
    | Node of {
        lo : int;
        hi : int;
        left : node;
        right : node;
        mutable maxv : float;
        mutable maxi : int;
        mutable lzy : float;
      }

  type t = { n : int; root : node }

  let maxv = function Leaf l -> l.maxv | Node nd -> nd.maxv
  let maxi = function Leaf l -> l.leaf | Node nd -> nd.maxi

  let create n =
    let base = ref 1 in
    while !base < n do
      base := !base * 2
    done;
    let rec build lo hi =
      if hi - lo = 1 then
        Leaf { leaf = lo; maxv = (if lo >= n then Float.neg_infinity else 0.) }
      else begin
        let mid = (lo + hi) / 2 in
        let left = build lo mid and right = build mid hi in
        let m, i =
          if maxv left >= maxv right then (maxv left, maxi left)
          else (maxv right, maxi right)
        in
        Node { lo; hi; left; right; maxv = m; maxi = i; lzy = 0. }
      end
    in
    { n; root = build 0 !base }

  let range_add t l r v =
    let l = Int.max 0 l and r = Int.min t.n r in
    if l < r then
      let rec go node =
        match node with
        | Leaf lf ->
            if l <= lf.leaf && lf.leaf < r then lf.maxv <- lf.maxv +. v
        | Node nd ->
            if r <= nd.lo || nd.hi <= l then ()
            else if l <= nd.lo && nd.hi <= r then begin
              nd.maxv <- nd.maxv +. v;
              nd.lzy <- nd.lzy +. v
            end
            else begin
              go nd.left;
              go nd.right;
              if maxv nd.left >= maxv nd.right then begin
                nd.maxv <- maxv nd.left +. nd.lzy;
                nd.maxi <- maxi nd.left
              end
              else begin
                nd.maxv <- maxv nd.right +. nd.lzy;
                nd.maxi <- maxi nd.right
              end
            end
      in
      go t.root

  let max_all t = maxv t.root
  let argmax t = maxi t.root

  let value_at t i =
    let rec go node acc =
      match node with
      | Leaf lf -> acc +. lf.maxv
      | Node nd ->
          let acc = acc +. nd.lzy in
          if i < (nd.lo + nd.hi) / 2 then go nd.left acc else go nd.right acc
    in
    go t.root 0.
end

(* One random interleaving: sizes that are not powers of two (padding
   leaves), adds that stack lazies on the same ranges, full-range adds
   (covering the root), and a value read + global max check after every
   operation. All comparisons are on IEEE bit patterns. *)
let segtree_matches_reference (n, ops) =
  let t = Segment_tree.create n in
  let r = Ref_tree.create n in
  List.for_all
    (fun (l0, r0, v, probe) ->
      let l = min l0 r0 and rr = max l0 r0 in
      Segment_tree.range_add t l rr v;
      Ref_tree.range_add r l rr v;
      let i = probe mod n in
      Int64.bits_of_float (Segment_tree.max_all t)
      = Int64.bits_of_float (Ref_tree.max_all r)
      && Segment_tree.argmax t = Ref_tree.argmax r
      && Int64.bits_of_float (Segment_tree.value_at t i)
         = Int64.bits_of_float (Ref_tree.value_at r i))
    ops

let segtree_ops_arb =
  QCheck.(
    pair (int_range 1 67)
      (small_list
         (quad (int_range 0 70) (int_range 0 70)
            (* Irrational-ish magnitudes so any reassociation of the
               lazy sums would change the bits. *)
            (float_range (-5.) 5.)
            small_nat)))

let prop_segtree_vs_reference =
  QCheck.Test.make ~count:400
    ~name:"Eytzinger tree = pointer tree, bit for bit" segtree_ops_arb
    segtree_matches_reference

(* The tree has no shared mutable state across instances: four domains
   each driving their own interleavings must all observe bit-identical
   behaviour (the Obs counters the trees bump are atomic). *)
let prop_segtree_vs_reference_4dom =
  QCheck.Test.make ~count:60
    ~name:"Eytzinger tree = pointer tree across 4 domains" segtree_ops_arb
    (fun case ->
      let doms =
        Array.init 4 (fun _ ->
            Domain.spawn (fun () -> segtree_matches_reference case))
      in
      Array.for_all Fun.id (Array.map Domain.join doms))

(* ------------------------------------------------------------------ *)
(* Interval1d *)

let test_interval1d_simple () =
  let pts = [| (0., 1.); (1., 1.); (2., 1.); (10., 5.) |] in
  let p = Interval1d.max_sum ~len:2. pts in
  check_float "three unit points" 5. p.Interval1d.value;
  let p2 = Interval1d.max_sum ~len:0.5 pts in
  check_float "short interval takes heavy point" 5. p2.Interval1d.value;
  let p3 = Interval1d.max_sum ~len:100. pts in
  check_float "everything" 8. p3.Interval1d.value

let test_interval1d_negative_guards () =
  (* The Section 5 construction: positive points flanked by negative
     guards. Interval placed at a point must exclude its guard. *)
  let pts = [| (-0.5, -3.); (0., 3.); (0.5, -4.); (1., 4.) |] in
  (* [0,1] covers 3 - 4 + 4 = 3, but starting just after the -4 guard
     covers only the +4 point: the optimum is 4. *)
  let p = Interval1d.max_sum ~len:1. pts in
  check_float "dodge the guard" 4. p.Interval1d.value;
  let p2 = Interval1d.max_sum ~len:0.4 pts in
  check_float "singleton best" 4. p2.Interval1d.value

let test_interval1d_all_negative () =
  let pts = [| (0., -1.); (1., -2.) |] in
  let p = Interval1d.max_sum ~len:5. pts in
  check_float "empty placement allowed" 0. p.Interval1d.value

let test_interval1d_zero_length () =
  let pts = [| (0., 2.); (0., 3.); (1., 4.) |] in
  let p = Interval1d.max_sum ~len:0. pts in
  check_float "degenerate interval stacks coincident points" 5.
    p.Interval1d.value

let test_interval1d_placement_consistent () =
  let rng = Rng.create 123 in
  for _ = 1 to 50 do
    let n = 1 + Rng.int rng 30 in
    let pts =
      Array.init n (fun _ -> (Rng.uniform rng 0. 10., Rng.uniform rng 0. 5.))
    in
    let len = Rng.uniform rng 0.1 5. in
    let p = Interval1d.max_sum ~len pts in
    (* Recompute the weight actually covered by the reported placement. *)
    let v =
      Array.fold_left
        (fun acc (x, w) ->
          if p.Interval1d.lo -. 1e-9 <= x && x <= p.Interval1d.lo +. len +. 1e-9
          then acc +. w
          else acc)
        0. pts
    in
    check_floatish "reported placement achieves reported value"
      p.Interval1d.value v
  done

let prop_interval1d_vs_brute =
  QCheck.Test.make ~count:300 ~name:"1-D sweep matches brute force"
    QCheck.(
      pair (float_range 0. 4.)
        (list_of_size (Gen.int_range 1 25)
           (pair (float_range (-10.) 10.) (float_range (-5.) 5.))))
    (fun (len, pts) ->
      let pts = Array.of_list pts in
      let a = Interval1d.max_sum ~len pts in
      let b = Interval1d.max_sum_brute ~len pts in
      Float.abs (a.Interval1d.value -. b.Interval1d.value) < 1e-9)

let prop_interval1d_batched_consistent =
  QCheck.Test.make ~count:100 ~name:"batched 1-D queries match single queries"
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 6) (float_range 0. 5.))
        (list_of_size (Gen.int_range 1 20)
           (pair (float_range (-10.) 10.) (float_range (-5.) 5.))))
    (fun (lens, pts) ->
      let pts = Array.of_list pts and lens = Array.of_list lens in
      let batch = Interval1d.batched ~lens pts in
      Array.for_all2
        (fun len r ->
          let single = Interval1d.max_sum ~len pts in
          Float.abs (single.Interval1d.value -. r.Interval1d.value) < 1e-9)
        lens batch)

(* Answers pinned from the (coordinate, index) tandem sort on fresh
   columns; the key-only order on lent scratch must reproduce them bit
   for bit. Duplicates, negative weights, -0.0 and sizes on both sides
   of the radix threshold. *)
let pinned_inputs =
  [
    ( "dups40",
      2.5,
      (let rng = Rng.create 101 in
       Array.init 40 (fun _ ->
           (float_of_int (Rng.int rng 10), Rng.uniform rng (-3.) 5.))),
      "0x1p-1",
      "0x1.0562068d48f4p+5" );
    ( "dups2000",
      7.,
      (let rng = Rng.create 202 in
       Array.init 2000 (fun _ ->
           (0.5 *. float_of_int (Rng.int rng 300), Rng.uniform rng (-2.) 3.))),
      "0x1.3p+5",
      "0x1.5dd955e5f7adcp+6" );
    ( "signed600",
      0.,
      (let rng = Rng.create 303 in
       Array.init 600 (fun i ->
           let x =
             if i mod 7 = 0 then -0.0
             else 0.25 *. Float.round (4. *. Rng.uniform rng (-50.) 50.)
           in
           (x, Rng.uniform rng (-4.) 4.))),
      "-0x1.1cp+4",
      "0x1.112971ef3e8eep+3" );
    ( "wide12000",
      3.,
      (let rng = Rng.create 404 in
       Array.init 12000 (fun _ ->
           (Rng.uniform rng (-1e6) 1e6, Rng.uniform rng (-1.) 2.))),
      "0x1.97d93fe252cf8p+18",
      "0x1.da188aa22c914p+1" );
    ("empty", 1., [||], "0x0p+0", "0x0p+0");
  ]

let test_interval1d_pinned () =
  List.iter
    (fun (name, len, pts, lo, value) ->
      let hex (p : Interval1d.placement) =
        (Printf.sprintf "%h" p.lo, Printf.sprintf "%h" p.value)
      in
      let want = (lo, value) in
      let check what p =
        Alcotest.(check (pair string string)) (name ^ ": " ^ what) want (hex p)
      in
      check "max_sum" (Interval1d.max_sum ~len pts);
      (match Interval1d.max_sum_checked ~len pts with
      | Ok p -> check "max_sum_checked" p
      | Error _ -> Alcotest.failf "%s: rejected" name);
      check "preprocess + query"
        (Interval1d.query (Interval1d.preprocess pts) ~len))
    pinned_inputs

(* A single query on grown scratch allocates its answer and little
   else: no index array, no column. *)
let test_interval1d_single_allocation () =
  let rng = Rng.create 7 in
  let pts =
    Array.init 12_000 (fun _ ->
        (Rng.uniform rng 0. 1000., Rng.uniform rng (-1.) 3.))
  in
  ignore (Interval1d.max_sum_checked ~len:25. pts);
  Gc.minor ();
  let major0 = (Gc.quick_stat ()).Gc.major_words in
  let w0 = Gc.minor_words () in
  let r = Interval1d.max_sum_checked ~len:25. pts in
  let minor = Gc.minor_words () -. w0 in
  let major = (Gc.quick_stat ()).Gc.major_words -. major0 in
  Alcotest.(check bool) "answered" true (Result.is_ok r);
  if minor > 64. then Alcotest.failf "%.0f minor words (bound 64)" minor;
  Alcotest.(check (float 0.)) "major words" 0. major

(* Two systhreads of one domain share its scratch slots; lending keeps
   each solve on scratch of its own, so every answer is the sequential
   one. Both threads alternate 12,000-point interval queries with
   700-disk sweeps on inputs of their own. *)
let test_threads_share_no_scratch () =
  let interval seed =
    let rng = Rng.create seed in
    Array.init 12_000 (fun _ ->
        (Rng.uniform rng 0. 1000., Rng.uniform rng (-1.) 3.))
  in
  let disks seed =
    let rng = Rng.create seed in
    Array.init 700 (fun _ ->
        (Rng.uniform rng 0. 4., Rng.uniform rng 0. 4., Rng.uniform rng 0.5 2.))
  in
  let work seed =
    let pts = interval seed and tri = disks (seed + 1) in
    let solve () =
      let p = Interval1d.max_sum ~len:25. pts in
      let d = Disk2d.max_weight ~domains:1 ~radius:1. tri in
      List.map Int64.bits_of_float
        [ p.Interval1d.lo; p.value; d.Disk2d.x; d.y; d.value ]
    in
    (solve, solve ())
  in
  let jobs = [ work 11; work 23 ] in
  let differed = Atomic.make 0 in
  let threads =
    List.map
      (fun (solve, want) ->
        Thread.create
          (fun () ->
            for _ = 1 to 5 do
              if solve () <> want then Atomic.incr differed
            done)
          ())
      jobs
  in
  List.iter Thread.join threads;
  Alcotest.(check int) "answers that differ from the sequential ones" 0
    (Atomic.get differed)

(* ------------------------------------------------------------------ *)
(* Rect2d *)

let test_rect2d_simple () =
  let pts = [| (0., 0., 1.); (0.5, 0.5, 1.); (5., 5., 1.) |] in
  let p = Rect2d.max_sum ~width:1. ~height:1. pts in
  check_float "two close points" 2. p.Rect2d.value;
  let p2 = Rect2d.max_sum ~width:20. ~height:20. pts in
  check_float "all three" 3. p2.Rect2d.value

let test_rect2d_reported_point () =
  let rng = Rng.create 31 in
  for _ = 1 to 30 do
    let n = 1 + Rng.int rng 25 in
    let pts =
      Array.init n (fun _ ->
          (Rng.uniform rng 0. 8., Rng.uniform rng 0. 8., Rng.uniform rng 0. 3.))
    in
    let w = Rng.uniform rng 0.5 3. and h = Rng.uniform rng 0.5 3. in
    let p = Rect2d.max_sum ~width:w ~height:h pts in
    let v =
      Array.fold_left
        (fun acc (x, y, wt) ->
          if
            Float.abs (x -. p.Rect2d.x) <= (w /. 2.) +. 1e-9
            && Float.abs (y -. p.Rect2d.y) <= (h /. 2.) +. 1e-9
          then acc +. wt
          else acc)
        0. pts
    in
    check_floatish "placement achieves value" p.Rect2d.value v
  done

let prop_rect2d_vs_brute =
  QCheck.Test.make ~count:200 ~name:"rectangle sweep matches brute force"
    QCheck.(
      triple (float_range 0.5 3.) (float_range 0.5 3.)
        (list_of_size (Gen.int_range 1 18)
           (triple (float_range 0. 6.) (float_range 0. 6.) (float_range 0. 4.))))
    (fun (w, h, pts) ->
      let pts = Array.of_list pts in
      let a = Rect2d.max_sum ~width:w ~height:h pts in
      let b = Rect2d.max_sum_brute ~width:w ~height:h pts in
      Float.abs (a.Rect2d.value -. b.Rect2d.value) < 1e-6)

(* ------------------------------------------------------------------ *)
(* Disk2d *)

let test_disk2d_cluster () =
  (* Five coincident points: depth 5 at the shared center. *)
  let pts = Array.init 5 (fun _ -> (1., 1., 1.)) in
  let r = Disk2d.max_weight ~radius:1. pts in
  check_float "coincident cluster" 5. r.Disk2d.value;
  check_floatish "depth at reported point" 5.
    (Disk2d.depth_at ~radius:1. pts r.Disk2d.x r.Disk2d.y)

let test_disk2d_two_clusters () =
  let mk cx cy k w = Array.init k (fun _ -> (cx, cy, w)) in
  let pts = Array.append (mk 0. 0. 3 1.) (mk 100. 0. 2 10.) in
  let r = Disk2d.max_weight ~radius:1. pts in
  check_float "heavy cluster wins" 20. r.Disk2d.value

let test_disk2d_single () =
  let r = Disk2d.max_weight ~radius:2. [| (3., 4., 7.) |] in
  check_float "single disk" 7. r.Disk2d.value

let reversed a = Array.of_list (List.rev (Array.to_list a))

(* The first two points are exactly 2r apart: the closed disk centred
   midway holds all three, whatever the input order. *)
let test_disk2d_tangent_closed () =
  let pts = [| (1.625, 0.25, 1.); (3.625, 0.25, 1.); (2.375, 0.125, 1.) |] in
  check_float "forward" 3. (Disk2d.max_weight ~radius:1. pts).Disk2d.value;
  check_float "reversed" 3.
    (Disk2d.max_weight ~radius:1. (reversed pts)).Disk2d.value

let test_disk2d_monotone_in_radius () =
  let rng = Rng.create 23 in
  let pts =
    Array.init 30 (fun _ ->
        (Rng.uniform rng 0. 6., Rng.uniform rng 0. 6., 1.))
  in
  let best radius = (Disk2d.max_weight ~radius pts).Disk2d.value in
  let radii = [| 0.25; 0.5; 1.; 2.; 4.; 8. |] in
  for i = 1 to Array.length radii - 1 do
    Alcotest.(check bool) "larger radius covers no less" true
      (best radii.(i) >= best radii.(i - 1) -. 1e-9)
  done

let prop_disk2d_vs_brute =
  QCheck.Test.make ~count:150 ~name:"disk sweep matches candidate brute force"
    QCheck.(
      list_of_size (Gen.int_range 1 14)
        (triple (float_range 0. 4.) (float_range 0. 4.) (float_range 0.1 3.)))
    (fun pts ->
      let pts = Array.of_list pts in
      let a = Disk2d.max_weight ~radius:1. pts in
      let _, bv = Brute.max_weighted ~radius:1. pts in
      Float.abs (a.Disk2d.value -. bv) < 1e-6)

let prop_disk2d_point_achieves_value =
  QCheck.Test.make ~count:150 ~name:"disk sweep point achieves its value"
    QCheck.(
      list_of_size (Gen.int_range 1 14)
        (triple (float_range 0. 4.) (float_range 0. 4.) (float_range 0.1 3.)))
    (fun pts ->
      let pts = Array.of_list pts in
      let a = Disk2d.max_weight ~radius:1. pts in
      Float.abs (Disk2d.depth_at ~radius:1. pts a.Disk2d.x a.Disk2d.y -. a.Disk2d.value)
      < 1e-6)

(* ------------------------------------------------------------------ *)
(* Colored_disk2d *)

let test_colored_disk_basic () =
  (* Three colors meeting at the origin-ish region, plus duplicates of one
     color far away. *)
  let centers = [| (0., 0.); (0.5, 0.); (0., 0.5); (10., 10.); (10.1, 10.) |] in
  let colors = [| 1; 2; 3; 1; 1 |] in
  let r = Colored_disk2d.max_colored ~radius:1. centers ~colors in
  Alcotest.(check int) "three distinct colors" 3 r.Colored_disk2d.value

(* The qcheck counterexample of the input-order property (lattice
   coordinates / 8): (29, 2) and (13, 2) are exactly 2r apart, and the
   closed disk between them reaches three colors. *)
let test_colored_disk_tangent_closed () =
  let l =
    [
      (11, 22, 2); (34, 38, 0); (1, 35, 2); (4, 12, 5); (19, 1, 1);
      (18, 43, 2); (25, 46, 2); (20, 47, 5); (29, 2, 2); (13, 2, 5);
    ]
  in
  let d k = float_of_int k /. 8. in
  let centers = Array.of_list (List.map (fun (x, y, _) -> (d x, d y)) l) in
  let colors = Array.of_list (List.map (fun (_, _, c) -> c) l) in
  let value centers colors =
    (Colored_disk2d.max_colored ~radius:1. centers ~colors).Colored_disk2d.value
  in
  Alcotest.(check int) "forward" 3 (value centers colors);
  Alcotest.(check int) "reversed" 3
    (value (reversed centers) (reversed colors))

let test_colored_disk_duplicates_dont_count () =
  let centers = [| (0., 0.); (0.1, 0.); (0.2, 0.); (0.3, 0.) |] in
  let colors = [| 7; 7; 7; 7 |] in
  let r = Colored_disk2d.max_colored ~radius:1. centers ~colors in
  Alcotest.(check int) "same color counts once" 1 r.Colored_disk2d.value

let test_colored_depth_at () =
  let centers = [| (0., 0.); (0.5, 0.); (3., 3.) |] in
  let colors = [| 1; 2; 3 |] in
  Alcotest.(check int) "origin sees 2 colors" 2
    (Colored_disk2d.colored_depth_at ~radius:1. centers ~colors 0.25 0.);
  Alcotest.(check int) "far sees 1" 1
    (Colored_disk2d.colored_depth_at ~radius:1. centers ~colors 3. 3.);
  Alcotest.(check int) "nowhere sees 0" 0
    (Colored_disk2d.colored_depth_at ~radius:1. centers ~colors 100. 100.)

let prop_colored_disk_vs_brute =
  QCheck.Test.make ~count:150 ~name:"colored sweep matches brute force"
    QCheck.(
      list_of_size (Gen.int_range 1 14)
        (triple (float_range 0. 4.) (float_range 0. 4.) (int_range 0 4)))
    (fun pts ->
      let centers = Array.of_list (List.map (fun (x, y, _) -> (x, y)) pts) in
      let colors = Array.of_list (List.map (fun (_, _, c) -> c) pts) in
      let a = Colored_disk2d.max_colored ~radius:1. centers ~colors in
      let _, bv = Brute.max_colored ~radius:1. centers ~colors in
      a.Colored_disk2d.value = bv)

let prop_colored_le_total =
  QCheck.Test.make ~count:150 ~name:"colored depth <= number of colors"
    QCheck.(
      list_of_size (Gen.int_range 1 20)
        (triple (float_range 0. 4.) (float_range 0. 4.) (int_range 0 5)))
    (fun pts ->
      let centers = Array.of_list (List.map (fun (x, y, _) -> (x, y)) pts) in
      let colors = Array.of_list (List.map (fun (_, _, c) -> c) pts) in
      let a = Colored_disk2d.max_colored ~radius:1. centers ~colors in
      let distinct = List.sort_uniq compare (Array.to_list colors) in
      a.Colored_disk2d.value >= 1
      && a.Colored_disk2d.value <= List.length distinct)

(* ------------------------------------------------------------------ *)
(* Similarity invariance: scaling every coordinate and the radius by the
   same factor, or translating everything, must not change any optimum. *)

let prop_disk_scale_invariance =
  QCheck.Test.make ~count:150 ~name:"disk sweep is scale invariant"
    QCheck.(
      pair (float_range 0.5 4.)
        (list_of_size (Gen.int_range 1 12)
           (triple (float_range 0. 4.) (float_range 0. 4.) (float_range 0.1 3.))))
    (fun (lambda, pts) ->
      let pts = Array.of_list pts in
      let scaled = Array.map (fun (x, y, w) -> (lambda *. x, lambda *. y, w)) pts in
      let a = Disk2d.max_weight ~radius:1. pts in
      let b = Disk2d.max_weight ~radius:lambda scaled in
      Float.abs (a.Disk2d.value -. b.Disk2d.value) < 1e-6)

let prop_disk_translation_invariance =
  QCheck.Test.make ~count:150 ~name:"disk sweep is translation invariant"
    QCheck.(
      triple (float_range (-50.) 50.) (float_range (-50.) 50.)
        (list_of_size (Gen.int_range 1 12)
           (triple (float_range 0. 4.) (float_range 0. 4.) (float_range 0.1 3.))))
    (fun (dx, dy, pts) ->
      let pts = Array.of_list pts in
      let moved = Array.map (fun (x, y, w) -> (x +. dx, y +. dy, w)) pts in
      let a = Disk2d.max_weight ~radius:1. pts in
      let b = Disk2d.max_weight ~radius:1. moved in
      Float.abs (a.Disk2d.value -. b.Disk2d.value) < 1e-6)

let prop_colored_disk_scale_invariance =
  QCheck.Test.make ~count:150 ~name:"colored sweep is scale invariant"
    QCheck.(
      pair (float_range 0.5 4.)
        (list_of_size (Gen.int_range 1 12)
           (triple (float_range 0. 4.) (float_range 0. 4.) (int_range 0 4))))
    (fun (lambda, raw) ->
      let centers = Array.of_list (List.map (fun (x, y, _) -> (x, y)) raw) in
      let colors = Array.of_list (List.map (fun (_, _, c) -> c) raw) in
      let scaled = Array.map (fun (x, y) -> (lambda *. x, lambda *. y)) centers in
      let a = Colored_disk2d.max_colored ~radius:1. centers ~colors in
      let b = Colored_disk2d.max_colored ~radius:lambda scaled ~colors in
      a.Colored_disk2d.value = b.Colored_disk2d.value)

let prop_rect_monotone_in_size =
  QCheck.Test.make ~count:150 ~name:"rect optimum is monotone in size"
    QCheck.(
      list_of_size (Gen.int_range 1 15)
        (triple (float_range 0. 6.) (float_range 0. 6.) (float_range 0. 3.)))
    (fun raw ->
      let pts = Array.of_list raw in
      let small = Rect2d.max_sum ~width:1. ~height:1. pts in
      let big = Rect2d.max_sum ~width:2. ~height:3. pts in
      big.Rect2d.value >= small.Rect2d.value -. 1e-9)

let prop_interval_monotone_in_len =
  QCheck.Test.make ~count:200 ~name:"1-D optimum monotone in length (w >= 0)"
    QCheck.(
      list_of_size (Gen.int_range 1 20)
        (pair (float_range 0. 20.) (float_range 0. 3.)))
    (fun raw ->
      let pts = Array.of_list raw in
      let a = Interval1d.max_sum ~len:1. pts in
      let b = Interval1d.max_sum ~len:2.5 pts in
      b.Interval1d.value >= a.Interval1d.value -. 1e-9)

(* ------------------------------------------------------------------ *)
(* Differential seed-sweep: a deterministic battery of ~200 seeded
   random instances (n up to 40 — above the qcheck properties' sizes)
   comparing the production sweeps against the O(n^3) candidate
   enumeration. Integer weights make both sides' depth sums exact
   floats, so agreement is checked with [=], not a tolerance. Extents
   cycle through dense / medium / sparse regimes so the sweeps see
   all-overlapping, mixed and mostly-disjoint arrangements. *)

let diff_extents = [| 2.; 6.; 12. |]

let test_differential_weighted_seed_sweep () =
  for seed = 1 to 100 do
    let rng = Rng.create (7000 + seed) in
    let n = 1 + Rng.int rng 40 in
    let extent = diff_extents.(seed mod Array.length diff_extents) in
    let pts =
      Array.init n (fun _ ->
          ( Rng.uniform rng 0. extent,
            Rng.uniform rng 0. extent,
            float_of_int (1 + Rng.int rng 5) ))
    in
    let a = Disk2d.max_weight ~radius:1. pts in
    let _, bv = Brute.max_weighted ~radius:1. pts in
    Alcotest.(check (float 0.))
      (Printf.sprintf "seed %d (n=%d, extent=%.0f)" seed n extent)
      bv a.Disk2d.value
  done

let test_differential_colored_seed_sweep () =
  for seed = 1 to 100 do
    let rng = Rng.create (8000 + seed) in
    let n = 1 + Rng.int rng 40 in
    let extent = diff_extents.(seed mod Array.length diff_extents) in
    let centers =
      Array.init n (fun _ ->
          (Rng.uniform rng 0. extent, Rng.uniform rng 0. extent))
    in
    (* Color count varies from 2 (duplicates dominate) to 12. *)
    let palette = 2 + Rng.int rng 11 in
    let colors = Array.init n (fun _ -> Rng.int rng palette) in
    let a = Colored_disk2d.max_colored ~radius:1. centers ~colors in
    let _, bv = Brute.max_colored ~radius:1. centers ~colors in
    Alcotest.(check int)
      (Printf.sprintf "seed %d (n=%d, extent=%.0f, palette=%d)" seed n extent
         palette)
      bv a.Colored_disk2d.value
  done

(* ------------------------------------------------------------------ *)
(* The sort kernels assume non-NaN keys — the radix float-bit mapping is
   only monotone over non-NaN values — so the Guard layer must reject
   NaN anywhere in the input before any kernel runs. *)

let test_nan_rejected_upstream () =
  let reject what = function
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s must be rejected" what
  in
  reject "NaN coordinate"
    (Interval1d.max_sum_checked ~len:1. [| (Float.nan, 1.); (0., 1.) |]);
  reject "NaN weight"
    (Interval1d.max_sum_checked ~len:1. [| (0., Float.nan); (1., 1.) |]);
  reject "NaN interval length"
    (Interval1d.max_sum_checked ~len:Float.nan [| (0., 1.) |]);
  reject "NaN batched length"
    (Interval1d.batched_checked ~lens:[| Float.nan |] [| (0., 1.) |])

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_segtree_vs_naive;
      prop_segtree_vs_reference;
      prop_segtree_vs_reference_4dom;
      prop_interval1d_vs_brute;
      prop_interval1d_batched_consistent;
      prop_rect2d_vs_brute;
      prop_disk2d_vs_brute;
      prop_disk2d_point_achieves_value;
      prop_colored_disk_vs_brute;
      prop_colored_le_total;
      prop_disk_scale_invariance;
      prop_disk_translation_invariance;
      prop_colored_disk_scale_invariance;
      prop_rect_monotone_in_size;
      prop_interval_monotone_in_len;
    ]

let () =
  Alcotest.run "sweep"
    [
      ( "segment-tree",
        [
          Alcotest.test_case "basics" `Quick test_segtree_basic;
          Alcotest.test_case "range clamping" `Quick test_segtree_clamping;
          Alcotest.test_case "non power-of-two size" `Quick test_segtree_non_pow2;
        ] );
      ( "interval1d",
        [
          Alcotest.test_case "simple placements" `Quick test_interval1d_simple;
          Alcotest.test_case "negative guard points" `Quick
            test_interval1d_negative_guards;
          Alcotest.test_case "all-negative input" `Quick
            test_interval1d_all_negative;
          Alcotest.test_case "zero-length interval" `Quick
            test_interval1d_zero_length;
          Alcotest.test_case "reported placement consistent" `Quick
            test_interval1d_placement_consistent;
          Alcotest.test_case "NaN rejected before the kernels" `Quick
            test_nan_rejected_upstream;
          Alcotest.test_case "pinned answers" `Quick test_interval1d_pinned;
          Alcotest.test_case "single query allocates its answer" `Quick
            test_interval1d_single_allocation;
          Alcotest.test_case "threads of one domain share no scratch" `Quick
            test_threads_share_no_scratch;
        ] );
      ( "rect2d",
        [
          Alcotest.test_case "simple placements" `Quick test_rect2d_simple;
          Alcotest.test_case "reported point achieves value" `Quick
            test_rect2d_reported_point;
        ] );
      ( "disk2d",
        [
          Alcotest.test_case "coincident cluster" `Quick test_disk2d_cluster;
          Alcotest.test_case "two clusters, weighted" `Quick
            test_disk2d_two_clusters;
          Alcotest.test_case "single disk" `Quick test_disk2d_single;
          Alcotest.test_case "tangent disks are closed" `Quick
            test_disk2d_tangent_closed;
          Alcotest.test_case "monotone in radius" `Quick
            test_disk2d_monotone_in_radius;
        ] );
      ( "colored-disk2d",
        [
          Alcotest.test_case "three colors" `Quick test_colored_disk_basic;
          Alcotest.test_case "duplicates count once" `Quick
            test_colored_disk_duplicates_dont_count;
          Alcotest.test_case "depth queries" `Quick test_colored_depth_at;
          Alcotest.test_case "tangent disks are closed" `Quick
            test_colored_disk_tangent_closed;
        ] );
      ( "differential",
        [
          Alcotest.test_case "weighted sweep vs brute, 100 seeds" `Quick
            test_differential_weighted_seed_sweep;
          Alcotest.test_case "colored sweep vs brute, 100 seeds" `Quick
            test_differential_colored_seed_sweep;
        ] );
      ("properties", qcheck_cases);
    ]
