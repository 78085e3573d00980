(* Tests for the computational-geometry substrate (lib/geom). *)

module Point = Maxrs_geom.Point
module Rng = Maxrs_geom.Rng
module Sphere = Maxrs_geom.Sphere
module Ball = Maxrs_geom.Ball
module Box = Maxrs_geom.Box
module Grid = Maxrs_geom.Grid
module Shifted_grids = Maxrs_geom.Shifted_grids
module Angle = Maxrs_geom.Angle
module Circle = Maxrs_geom.Circle
module Fvec = Maxrs_geom.Fvec

let check_float = Alcotest.(check (float 1e-9))
let check_floatish = Alcotest.(check (float 1e-6))

(* ------------------------------------------------------------------ *)
(* Point *)

let test_point_basic () =
  let p = Point.of_list [ 1.; 2.; 3. ] and q = Point.of_list [ 4.; 6.; 3. ] in
  Alcotest.(check int) "dim" 3 (Point.dim p);
  check_float "dist" 5. (Point.dist p q);
  check_float "dist2" 25. (Point.dist2 p q);
  check_float "dot" 25. (Point.dot p q);
  Alcotest.(check bool) "add" true
    (Point.equal (Point.add p q) (Point.of_list [ 5.; 8.; 6. ]));
  Alcotest.(check bool) "sub" true
    (Point.equal (Point.sub q p) (Point.of_list [ 3.; 4.; 0. ]));
  Alcotest.(check bool) "mid" true
    (Point.equal (Point.midpoint p q) (Point.of_list [ 2.5; 4.; 3. ]));
  Alcotest.(check bool) "lerp0" true (Point.equal (Point.lerp p q 0.) p);
  Alcotest.(check bool) "lerp1" true (Point.equal (Point.lerp p q 1.) q)

let test_point_equal_eps () =
  let p = Point.of_list [ 1.; 2. ] in
  let q = Point.of_list [ 1.0000001; 2. ] in
  Alcotest.(check bool) "not equal exactly" false (Point.equal p q);
  Alcotest.(check bool) "equal with eps" true (Point.equal ~eps:1e-6 p q);
  Alcotest.(check bool) "dim mismatch" false
    (Point.equal p (Point.of_list [ 1. ]))

let test_point_norm () =
  let p = Point.of_list [ 3.; 4. ] in
  check_float "norm" 5. (Point.norm p);
  check_float "norm2" 25. (Point.norm2 p);
  check_float "zero norm" 0. (Point.norm (Point.zero 4));
  Alcotest.(check bool) "scale" true
    (Point.equal (Point.scale 2. p) (Point.of_list [ 6.; 8. ]))

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done;
  let c = Rng.create 43 in
  let differs = ref false in
  for _ = 1 to 20 do
    if Rng.int a 1000000 <> Rng.int c 1000000 then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_rng_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "int in range" true (v >= 0 && v < 17);
    let f = Rng.float rng 3.5 in
    Alcotest.(check bool) "float in range" true (f >= 0. && f < 3.5);
    let u = Rng.uniform rng (-2.) 5. in
    Alcotest.(check bool) "uniform in range" true (u >= -2. && u < 5.)
  done

let test_rng_int_uniform_small_bound () =
  (* Rejection sampling removes the modulo bias: for a small bound every
     residue appears with frequency ~1/b. 70k draws put each bucket's
     standard deviation near 93, so a 5% tolerance (500) is ~5 sigma. *)
  let rng = Rng.create 2024 in
  let b = 7 in
  let n = 70_000 in
  let counts = Array.make b 0 in
  for _ = 1 to n do
    let v = Rng.int rng b in
    counts.(v) <- counts.(v) + 1
  done;
  let expect = float_of_int n /. float_of_int b in
  Array.iteri
    (fun i c ->
      let dev = Float.abs (float_of_int c -. expect) /. expect in
      Alcotest.(check bool)
        (Printf.sprintf "residue %d near uniform" i)
        true (dev < 0.05))
    counts

let test_rng_int_invalid_bound () =
  let rng = Rng.create 3 in
  Alcotest.check_raises "bound 0"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0));
  Alcotest.check_raises "negative bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng (-5)))

let test_rng_split_at () =
  (* Children are keyed by index alone, independent of derivation order. *)
  let a = Rng.create 5 and b = Rng.create 5 in
  let b4 = Rng.split_at b 4 in
  let a3 = Rng.split_at a 3 in
  let a4 = Rng.split_at a 4 in
  let b3 = Rng.split_at b 3 in
  for _ = 1 to 50 do
    Alcotest.(check int) "child 3 stream" (Rng.int a3 1_000_000)
      (Rng.int b3 1_000_000);
    Alcotest.(check int) "child 4 stream" (Rng.int a4 1_000_000)
      (Rng.int b4 1_000_000)
  done;
  let p = Rng.create 5 in
  let c3 = Rng.split_at p 3 and c4 = Rng.split_at p 4 in
  let differs = ref false in
  for _ = 1 to 20 do
    if Rng.int c3 1_000_000 <> Rng.int c4 1_000_000 then differs := true
  done;
  Alcotest.(check bool) "different indices differ" true !differs

let prop_rng_int_in_bound =
  QCheck.Test.make ~count:300 ~name:"rng: int lies in [0, bound)"
    QCheck.(pair small_int (int_range 1 1_000_000_000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Rng.int rng bound in
        if not (0 <= v && v < bound) then ok := false
      done;
      !ok)

(* [advance t k] is [k] draws in O(1); [save] and [load] carry a state
   through an int64 column. *)
let test_rng_advance () =
  let a = Rng.create 19 and b = Rng.create 19 in
  List.iter
    (fun k ->
      for _ = 1 to k do
        ignore (Rng.bits64 a)
      done;
      Rng.advance b k;
      Alcotest.(check int64) (Printf.sprintf "advance %d" k) (Rng.state a)
        (Rng.state b))
    [ 0; 1; 7; 26; 1000 ];
  let col = Bigarray.Array1.create Bigarray.Int64 Bigarray.c_layout 3 in
  Rng.save a col 1;
  let c = Rng.create 0 in
  Rng.load c col 1;
  Alcotest.(check int64) "save/load" (Rng.bits64 a) (Rng.bits64 c)

let test_rng_gaussian_moments () =
  let rng = Rng.create 11 in
  let n = 20000 in
  let sum = ref 0. and sum2 = ref 0. in
  for _ = 1 to n do
    let g = Rng.gaussian rng in
    sum := !sum +. g;
    sum2 := !sum2 +. (g *. g)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sum2 /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean ~ 0" true (Float.abs mean < 0.05);
  Alcotest.(check bool) "var ~ 1" true (Float.abs (var -. 1.) < 0.1)

let test_rng_shuffle () =
  let rng = Rng.create 3 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_rng_bernoulli () =
  let rng = Rng.create 5 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1 always true" true (Rng.bernoulli rng 1.0);
    Alcotest.(check bool) "p=0 always false" false (Rng.bernoulli rng 0.0)
  done;
  let hits = ref 0 in
  for _ = 1 to 10000 do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let frac = float_of_int !hits /. 10000. in
  Alcotest.(check bool) "p=0.3 frequency" true (Float.abs (frac -. 0.3) < 0.03)

(* ------------------------------------------------------------------ *)
(* Sphere *)

(* [m] samples drawn in one [fill_on] call, one point per sample. *)
let sphere_samples rng ~center ~radius m =
  let d = Point.dim center in
  let buf = Float.Array.make (m * d) 0. in
  Sphere.fill_on rng ~center ~radius ~pos:0 ~samples:m buf;
  Array.init m (fun si ->
      Array.init d (fun k -> Float.Array.get buf ((si * d) + k)))

let test_sphere_radius () =
  let rng = Rng.create 9 in
  List.iter
    (fun d ->
      let center = Array.init d (fun i -> float_of_int i) in
      Array.iter
        (fun p -> check_floatish "on sphere" 2.5 (Point.dist p center))
        (sphere_samples rng ~center ~radius:2.5 200))
    [ 1; 2; 3; 5; 8 ]

let test_sphere_fill_offset () =
  (* A block of m samples at [pos] is bit for bit the m one-sample calls
     at pos, pos + d, ... from the same rng state, leaves the rng in the
     same state, and writes no slot outside [pos, pos + m*d). *)
  let bits = Alcotest.(check int64) in
  List.iter
    (fun d ->
      let center = Array.init d (fun i -> 0.5 -. float_of_int i) in
      let m = 7 and pos = 5 in
      let len = pos + (m * d) + 4 and sentinel = -1234.5 in
      let block = Float.Array.make len sentinel
      and singles = Float.Array.make len sentinel in
      let rb = Rng.create (40 + d) and rs = Rng.create (40 + d) in
      Sphere.fill_on rb ~center ~radius:1.5 ~pos ~samples:m block;
      for si = 0 to m - 1 do
        Sphere.fill_on rs ~center ~radius:1.5 ~pos:(pos + (si * d)) ~samples:1
          singles
      done;
      for i = 0 to len - 1 do
        let b = Float.Array.get block i in
        bits "block = singles" (Int64.bits_of_float (Float.Array.get singles i))
          (Int64.bits_of_float b);
        if i < pos || i >= pos + (m * d) then
          bits "outside untouched" (Int64.bits_of_float sentinel)
            (Int64.bits_of_float b)
      done;
      bits "same rng state after"
        (Int64.bits_of_float (Rng.float rs 1.))
        (Int64.bits_of_float (Rng.float rb 1.)))
    [ 1; 2; 3 ]

(* Known answer: the first draws of seed 2024 on the unit circle, bit
   for bit. The angles come from the splitmix64 stream; cos and sin come
   from the host's libm, so a host whose libm rounds differently fails
   here rather than in a snapshot's position check. *)
let test_sphere_known_answer () =
  let rng = Rng.create 2024 in
  let buf = Float.Array.make 8 0. in
  Sphere.fill_on rng ~center:[| 0.; 0. |] ~radius:1. ~pos:0 ~samples:4 buf;
  List.iteri
    (fun i hex ->
      Alcotest.(check string)
        (Printf.sprintf "slot %d" i)
        hex
        (Printf.sprintf "%h" (Float.Array.get buf i)))
    [
      "-0x1.6f15ef64fefa3p-1";
      "-0x1.64eb98c6fc672p-1";
      "0x1.a36352311a5ccp-1";
      "0x1.25b25851fa435p-1";
      "-0x1.33b551429c2b9p-2";
      "0x1.e8563d8a01ed4p-1";
      "0x1.7d85828822951p-1";
      "0x1.557228e3445cp-1";
    ];
  Alcotest.(check int64) "rng state after" 8709371129873692732L (Rng.state rng)

(* Drawing at d = 2 allocates nothing per sample (nor per call). *)
let test_sphere_fill_words () =
  let rng = Rng.create 3 in
  let m = 1000 in
  let buf = Float.Array.make (2 * m) 0. in
  let center = [| 1.; -2. |] in
  Sphere.fill_on rng ~center ~radius:1.5 ~pos:0 ~samples:m buf;
  let w0 = Gc.minor_words () in
  for _ = 1 to 10 do
    Sphere.fill_on rng ~center ~radius:1.5 ~pos:0 ~samples:m buf
  done;
  Alcotest.(check (float 0.)) "minor words over 10,000 samples" 0.
    (Gc.minor_words () -. w0)

(* [skip_on] leaves the stream exactly where [fill_on] does, from any
   state: a sample space that skips a cell's draw and draws it later
   from its stamp sees the same stream on both sides of it. *)
let test_sphere_skip_on () =
  let states = Rng.create 77 in
  List.iter
    (fun d ->
      let center = Array.init d (fun i -> 0.25 *. float_of_int i) in
      List.iter
        (fun m ->
          let buf = Float.Array.make (m * d) 0. in
          for _ = 1 to 200 do
            let stamp = Rng.bits64 states in
            let filled = Rng.of_state stamp and skipped = Rng.of_state stamp in
            Sphere.fill_on filled ~center ~radius:0.4 ~pos:0 ~samples:m buf;
            Sphere.skip_on skipped ~dim:d ~samples:m;
            Alcotest.(check int64)
              (Printf.sprintf "d = %d, m = %d" d m)
              (Rng.state filled) (Rng.state skipped)
          done)
        [ 1; 8; 26 ])
    [ 1; 2; 3; 4; 5 ]

let test_sphere_in_ball () =
  let rng = Rng.create 10 in
  let center = Point.of_list [ 1.; -2.; 0.5 ] in
  for _ = 1 to 500 do
    let p = Sphere.sample_in rng ~center ~radius:1.5 in
    Alcotest.(check bool) "inside" true (Point.dist p center <= 1.5 +. 1e-9)
  done

let test_sphere_mean_near_center () =
  (* Uniformity smoke test: the empirical mean of many sphere samples must
     be close to the center. *)
  let rng = Rng.create 12 in
  let d = 3 and n = 5000 in
  let center = Point.of_list [ 10.; 20.; 30. ] in
  let acc = Point.zero d in
  Array.iter
    (fun p ->
      for i = 0 to d - 1 do
        acc.(i) <- acc.(i) +. p.(i)
      done)
    (sphere_samples rng ~center ~radius:1. n);
  let mean = Point.scale (1. /. float_of_int n) acc in
  Alcotest.(check bool) "mean close to center" true
    (Point.dist mean center < 0.05)

(* ------------------------------------------------------------------ *)
(* Box / Ball *)

let test_box_basic () =
  let b = Box.make (Point.of_list [ 0.; 0. ]) (Point.of_list [ 2.; 4. ]) in
  Alcotest.(check bool) "contains center" true (Box.contains b (Box.center b));
  Alcotest.(check bool) "contains corner" true
    (Box.contains b (Point.of_list [ 2.; 4. ]));
  Alcotest.(check bool) "outside" false
    (Box.contains b (Point.of_list [ 2.1; 1. ]));
  check_float "circumradius" (sqrt 5.) (Box.circumradius b);
  Alcotest.(check int) "corner count" 4 (List.length (Box.corners b));
  check_float "dist inside" 0. (Box.dist2_to_point b (Point.of_list [ 1.; 1. ]));
  check_float "dist outside" 2.
    (Box.dist2_to_point b (Point.of_list [ 3.; 5. ]))

let test_box_corners_3d () =
  let b = Box.of_center_half_extent (Point.zero 3) 1. in
  let cs = Box.corners b in
  Alcotest.(check int) "8 corners" 8 (List.length cs);
  List.iter (fun c -> check_float "corner dist" (sqrt 3.) (Point.norm c)) cs

let test_ball_contains () =
  let b = Ball.make (Point.of_list [ 0.; 0. ]) 2. in
  Alcotest.(check bool) "center" true (Ball.contains b (Point.zero 2));
  Alcotest.(check bool) "boundary" true
    (Ball.contains b (Point.of_list [ 2.; 0. ]));
  Alcotest.(check bool) "outside" false
    (Ball.contains b (Point.of_list [ 2.001; 0. ]))

let test_ball_intersections () =
  let b1 = Ball.unit (Point.of_list [ 0.; 0. ]) in
  let b2 = Ball.unit (Point.of_list [ 1.9; 0. ]) in
  let b3 = Ball.unit (Point.of_list [ 2.1; 0. ]) in
  Alcotest.(check bool) "overlapping" true (Ball.intersects_ball b1 b2);
  Alcotest.(check bool) "disjoint" false (Ball.intersects_ball b1 b3);
  let box = Box.make (Point.of_list [ 0.5; 0.5 ]) (Point.of_list [ 3.; 3. ]) in
  Alcotest.(check bool) "ball meets box" true (Ball.intersects_box b1 box);
  let far = Box.make (Point.of_list [ 5.; 5. ]) (Point.of_list [ 6.; 6. ]) in
  Alcotest.(check bool) "ball misses box" false (Ball.intersects_box b1 far)

(* ------------------------------------------------------------------ *)
(* Grid *)

let test_grid_cell_roundtrip () =
  let g = Grid.make ~side:0.7 ~origin:(Point.of_list [ 0.1; -0.3 ]) in
  let rng = Rng.create 21 in
  for _ = 1 to 500 do
    let p =
      Point.of_list [ Rng.uniform rng (-10.) 10.; Rng.uniform rng (-10.) 10. ]
    in
    let k = Grid.key_of_point g p in
    Alcotest.(check bool) "point in its cell box" true
      (Box.contains (Grid.cell_box g k) p);
    Alcotest.(check bool) "cell center in box" true
      (Box.contains (Grid.cell_box g k) (Grid.cell_center g k))
  done

let test_grid_circumradius () =
  let g = Grid.make ~side:2. ~origin:(Point.zero 3) in
  check_float "circumradius" (sqrt 3.) (Grid.cell_circumradius g);
  let g2 = Grid.make ~side:1. ~origin:(Point.zero 2) in
  check_float "2d" (sqrt 2. /. 2.) (Grid.cell_circumradius g2)

let test_grid_ball_cells () =
  let g = Grid.make ~side:1. ~origin:(Point.zero 2) in
  let b = Ball.unit (Point.of_list [ 0.5; 0.5 ]) in
  let keys = Grid.keys_intersecting_ball g b in
  Alcotest.(check bool) "contains own cell" true
    (List.exists (fun k -> k = [| 0; 0 |]) keys);
  List.iter
    (fun k ->
      Alcotest.(check bool) "key cell intersects" true
        (Ball.intersects_box b (Grid.cell_box g k)))
    keys;
  List.iter
    (fun k -> Alcotest.(check bool) "neighbor present" true (List.mem k keys))
    [ [| 1; 0 |]; [| -1; 0 |]; [| 0; 1 |]; [| 0; -1 |] ]

(* The cursor against the recursive odometer it replaced: the same
   keys in the same order (cell creation order fixes every grid's rng
   stream), on random grids and balls in 1-4 dimensions, including
   radii that cover a single cell and balls that start a cursor over
   again before it ran out. *)
let odometer_keys (g : Grid.t) ~center ~radius =
  let d = g.Grid.dim in
  let c = center and r = radius +. Maxrs_geom.Closed.eps in
  let cell i x =
    int_of_float (Float.floor ((x -. g.Grid.origin.(i)) /. g.Grid.side))
  in
  let lo = Array.init d (fun i -> cell i (c.(i) -. r))
  and hi = Array.init d (fun i -> cell i (c.(i) +. r)) in
  let key = Array.make d 0 and out = ref [] in
  let rec go i acc =
    if acc <= r *. r then
      if i = d then out := Array.copy key :: !out
      else
        for v = lo.(i) to hi.(i) do
          key.(i) <- v;
          let cell_lo = g.Grid.origin.(i) +. (float_of_int v *. g.Grid.side) in
          let cell_hi = cell_lo +. g.Grid.side in
          let dx =
            if c.(i) < cell_lo then cell_lo -. c.(i)
            else if c.(i) > cell_hi then c.(i) -. cell_hi
            else 0.
          in
          go (i + 1) (acc +. (dx *. dx))
        done
  in
  go 0 0.;
  List.rev !out

let test_grid_cursor_order () =
  let rng = Rng.create 31 in
  for trial = 1 to 400 do
    let d = 1 + (trial mod 4) in
    let origin = Array.init d (fun _ -> Rng.uniform rng (-1.) 1.) in
    let g = Grid.make ~side:(Rng.uniform rng 0.1 1.5) ~origin in
    let cur = Grid.cursor g in
    let center = Array.init d (fun _ -> Rng.uniform rng (-5.) 5.) in
    let radius = if trial mod 7 = 0 then 0. else Rng.uniform rng 0. 2. in
    (* an abandoned enumeration must not leak into the next one *)
    Grid.start cur ~center:(Array.make d 0.) ~radius:1.;
    ignore (Grid.next cur);
    Grid.start cur ~center ~radius;
    let got = ref [] in
    while Grid.next cur do
      got := Array.copy (Grid.cursor_key cur) :: !got
    done;
    Alcotest.(check bool) "exhausted cursor stays exhausted" false
      (Grid.next cur);
    Alcotest.(check (list (array int)))
      (Printf.sprintf "trial %d, d = %d" trial d)
      (odometer_keys g ~center ~radius)
      (List.rev !got)
  done

let test_grid_tbl () =
  let tbl = Grid.Tbl.create 16 in
  Grid.Tbl.replace tbl [| 1; 2; 3 |] "a";
  Grid.Tbl.replace tbl [| 1; 2; 4 |] "b";
  Alcotest.(check string) "lookup" "a" (Grid.Tbl.find tbl [| 1; 2; 3 |]);
  Grid.Tbl.replace tbl [| 1; 2; 3 |] "c";
  Alcotest.(check string) "replace" "c" (Grid.Tbl.find tbl [| 1; 2; 3 |]);
  Alcotest.(check int) "size" 2 (Grid.Tbl.length tbl)

(* ------------------------------------------------------------------ *)
(* Shifted grids (Lemma 2.1) *)

let test_shifted_grids_count () =
  let sg = Shifted_grids.make ~dim:2 ~side:1. ~delta:0.25 () in
  let per_axis = Shifted_grids.shifts_per_axis ~side:1. ~delta:0.25 ~dim:2 in
  Alcotest.(check int) "per axis" 6 per_axis;
  Alcotest.(check int) "total" 36 (Shifted_grids.count sg);
  Alcotest.(check bool) "faithful" true sg.Shifted_grids.faithful

let test_shifted_grids_capped () =
  let sg = Shifted_grids.make ~cap:10 ~dim:3 ~side:1. ~delta:0.1 () in
  Alcotest.(check int) "capped count" 10 (Shifted_grids.count sg);
  Alcotest.(check bool) "not faithful" false sg.Shifted_grids.faithful

let test_lemma_2_1 () =
  (* Lemma 2.1: in the faithful collection every point is delta-near in at
     least one grid. *)
  let rng = Rng.create 77 in
  List.iter
    (fun (dim, side, delta) ->
      let sg = Shifted_grids.make ~dim ~side ~delta () in
      for _ = 1 to 200 do
        let p = Array.init dim (fun _ -> Rng.uniform rng (-20.) 20.) in
        match Shifted_grids.find_near sg p with
        | Some (gi, _) ->
            Alcotest.(check bool) "witness is near" true
              (Shifted_grids.is_near sg ~grid_index:gi p)
        | None -> Alcotest.fail "Lemma 2.1 violated: no delta-near grid"
      done)
    [ (1, 1., 0.3); (2, 1., 0.25); (2, 0.5, 0.1); (3, 1., 0.4) ]

(* ------------------------------------------------------------------ *)
(* Angle *)

let test_angle_norm () =
  check_float "identity" 1.5 (Angle.norm 1.5);
  check_float "wrap up" (Angle.two_pi -. 1.) (Angle.norm (-1.));
  check_float "wrap down" 1. (Angle.norm (Angle.two_pi +. 1.));
  check_float "zero" 0. (Angle.norm 0.)

let test_angle_ivl_mem () =
  let i = Angle.ivl 1. 2. in
  Alcotest.(check bool) "in" true (Angle.mem i 1.5);
  Alcotest.(check bool) "start" true (Angle.mem i 1.);
  Alcotest.(check bool) "end" true (Angle.mem i 2.);
  Alcotest.(check bool) "out" false (Angle.mem i 2.5);
  (* wrapping interval from 6 to 1 *)
  let w = Angle.ivl 6. 1. in
  Alcotest.(check bool) "wrap in low" true (Angle.mem w 0.5);
  Alcotest.(check bool) "wrap in high" true (Angle.mem w 6.2);
  Alcotest.(check bool) "wrap out" false (Angle.mem w 3.)

let test_angle_complement_simple () =
  let c = Angle.complement [ Angle.ivl 0. Float.pi ] in
  check_floatish "complement length" Float.pi (Angle.total_length c);
  List.iter
    (fun i ->
      Alcotest.(check bool) "complement disjoint from input" false
        (Angle.mem (Angle.ivl 0. Float.pi) (Angle.midpoint i)))
    c

let test_angle_complement_empty_full () =
  Alcotest.(check int) "complement of nothing is full" 1
    (List.length (Angle.complement []));
  Alcotest.(check bool) "full covers" true (Angle.covers_circle [ Angle.full ]);
  Alcotest.(check int) "complement of full is empty" 0
    (List.length (Angle.complement [ Angle.full ]))

let test_angle_cover_by_halves () =
  let halves = [ Angle.ivl 0. Float.pi; Angle.ivl Float.pi 0. ] in
  Alcotest.(check bool) "two halves cover" true (Angle.covers_circle halves);
  check_floatish "total" Angle.two_pi (Angle.total_length halves)

let prop_angle_complement_measure =
  QCheck.Test.make ~count:300 ~name:"angle: |ivls| + |complement| = 2pi"
    QCheck.(
      small_list
        (pair (float_bound_inclusive 6.28) (float_bound_inclusive 6.28)))
    (fun pairs ->
      let ivls = List.map (fun (a, b) -> Angle.ivl a b) pairs in
      let covered = Angle.total_length ivls in
      let rest = Angle.total_length (Angle.complement ivls) in
      Float.abs (covered +. rest -. Angle.two_pi) < 1e-6)

let prop_angle_complement_disjoint =
  QCheck.Test.make ~count:300 ~name:"angle: complement points uncovered"
    QCheck.(
      small_list
        (pair (float_bound_inclusive 6.28) (float_bound_inclusive 6.28)))
    (fun pairs ->
      let ivls = List.map (fun (a, b) -> Angle.ivl a b) pairs in
      let comp = Angle.complement ivls in
      List.for_all
        (fun c ->
          let m = Angle.midpoint c in
          (not
             (List.exists (fun i -> Angle.mem i m && i.Angle.len > 1e-9) ivls))
          || c.Angle.len < 1e-9)
        comp)

(* ------------------------------------------------------------------ *)
(* Circle *)

let test_circle_point_angle_roundtrip () =
  let c = Circle.make ~cx:1. ~cy:2. ~r:3. in
  List.iter
    (fun theta ->
      let x, y = Circle.point_at c theta in
      check_floatish "roundtrip" (Angle.norm theta) (Circle.angle_of c x y))
    [ 0.; 0.5; 1.57; 3.; 4.5; 6.2 ]

let test_circle_intersections () =
  let c1 = Circle.make ~cx:0. ~cy:0. ~r:1. in
  let c2 = Circle.make ~cx:1. ~cy:0. ~r:1. in
  let pts = Circle.intersections c1 c2 in
  Alcotest.(check int) "two points" 2 (List.length pts);
  List.iter
    (fun (x, y) ->
      check_floatish "on c1" 1. (sqrt ((x *. x) +. (y *. y)));
      check_floatish "on c2" 1. (sqrt (((x -. 1.) ** 2.) +. (y *. y))))
    pts;
  let c3 = Circle.make ~cx:5. ~cy:0. ~r:1. in
  Alcotest.(check int) "disjoint" 0 (List.length (Circle.intersections c1 c3));
  let c4 = Circle.make ~cx:0. ~cy:0. ~r:0.3 in
  Alcotest.(check int) "nested" 0 (List.length (Circle.intersections c1 c4))

let test_circle_coverage_cases () =
  let c = Circle.make ~cx:0. ~cy:0. ~r:1. in
  (match Circle.coverage_by_disk c ~cx:0. ~cy:0. ~r:2. with
  | Circle.Covered -> ()
  | _ -> Alcotest.fail "expected Covered");
  (match Circle.coverage_by_disk c ~cx:5. ~cy:0. ~r:1. with
  | Circle.Disjoint -> ()
  | _ -> Alcotest.fail "expected Disjoint (far)");
  (match Circle.coverage_by_disk c ~cx:0. ~cy:0. ~r:0.5 with
  | Circle.Disjoint -> ()
  | _ -> Alcotest.fail "expected Disjoint (inside)");
  (* Closed disks: an externally tangent disk still holds the touching
     point, a zero-length span towards its center. *)
  (match Circle.coverage_by_disk c ~cx:2. ~cy:0. ~r:1. with
  | Circle.Arc ivl ->
      check_floatish "tangent start" 0. ivl.Angle.start;
      check_floatish "tangent length" 0. ivl.Angle.len
  | _ -> Alcotest.fail "expected a zero-length Arc (tangent)");
  match Circle.coverage_by_disk c ~cx:1. ~cy:0. ~r:1. with
  | Circle.Arc ivl ->
      (* Unit disk at distance 1: covered arc is 2pi/3 centered at angle 0. *)
      check_floatish "arc length" (2. *. Float.pi /. 3.) ivl.Angle.len;
      check_floatish "arc midpoint" 0.
        (let m = Angle.midpoint ivl in
         if m > Float.pi then m -. Angle.two_pi else m)
  | _ -> Alcotest.fail "expected Arc"

(* [coverage_into] on columns is [coverage_by_disk] bit for bit, with
   the arc's end in slot 2, and a call allocates nothing: it takes no
   float read from a column as an argument. *)
let test_circle_coverage_into () =
  let pts =
    [| (0.25, -0.5); (0.25, -0.5); (1.25, -0.25); (2.25, -0.5); (9., 9.);
       (0.25 +. 1e-10, -0.5); (-1.5, 0.3); (0.25, 1.5) |]
  in
  let n = Array.length pts in
  let xs = Fvec.init n (fun i -> fst pts.(i))
  and ys = Fvec.init n (fun i -> snd pts.(i)) in
  let out = Float.Array.create 3 in
  let codes = Array.make 3 0 in
  for i = 0 to n - 1 do
    let cx, cy = pts.(i) in
    let c = Circle.make ~cx ~cy ~r:1. in
    for j = 0 to n - 1 do
      let code = Circle.coverage_into xs ys ~r:1. i j out in
      codes.(code) <- codes.(code) + 1;
      let bits f = Int64.bits_of_float f in
      let dx, dy = pts.(j) in
      match Circle.coverage_by_disk c ~cx:dx ~cy:dy ~r:1. with
      | Circle.Covered -> Alcotest.(check int) "covered" Circle.cov_covered code
      | Circle.Disjoint ->
          Alcotest.(check int) "disjoint" Circle.cov_disjoint code
      | Circle.Arc ivl ->
          Alcotest.(check int) "arc" Circle.cov_arc code;
          let _, stop = Angle.endpoints ivl in
          Alcotest.(check (list int64)) "start, len, end"
            [ bits ivl.Angle.start; bits ivl.Angle.len; bits stop ]
            (List.map (fun k -> bits (Float.Array.get out k)) [ 0; 1; 2 ])
    done
  done;
  Array.iteri
    (fun code k ->
      Alcotest.(check bool) (Printf.sprintf "code %d met" code) true (k > 0))
    codes;
  let w0 = Gc.minor_words () in
  for _ = 1 to 100 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        ignore (Sys.opaque_identity (Circle.coverage_into xs ys ~r:1. i j out))
      done
    done
  done;
  Alcotest.(check (float 0.)) "minor words over 6,400 calls" 0.
    (Gc.minor_words () -. w0)

let prop_circle_coverage_consistent =
  (* The coverage classification must agree with direct membership tests of
     sampled circle points in the disk. *)
  QCheck.Test.make ~count:500 ~name:"circle: coverage agrees with membership"
    QCheck.(
      quad
        (float_range (-3.) 3.)
        (float_range (-3.) 3.)
        (float_range 0.1 3.)
        (float_bound_inclusive 6.28))
    (fun (dx, dy, r, theta) ->
      let c = Circle.make ~cx:0. ~cy:0. ~r:1. in
      let x, y = Circle.point_at c theta in
      let dist = sqrt (((x -. dx) ** 2.) +. ((y -. dy) ** 2.)) in
      let inside = dist <= r in
      let margin = Float.abs (dist -. r) in
      margin < 1e-4
      ||
      match Circle.coverage_by_disk c ~cx:dx ~cy:dy ~r with
      | Circle.Covered -> inside
      | Circle.Disjoint -> not inside
      | Circle.Arc ivl -> Bool.equal (Angle.mem ivl theta) inside)

let prop_circle_intersections_on_both =
  QCheck.Test.make ~count:500
    ~name:"circle: intersections lie on both circles"
    QCheck.(
      quad
        (float_range (-2.) 2.)
        (float_range (-2.) 2.)
        (float_range 0.2 2.) (float_range 0.2 2.))
    (fun (dx, dy, r1, r2) ->
      let c1 = Circle.make ~cx:0. ~cy:0. ~r:r1 in
      let c2 = Circle.make ~cx:dx ~cy:dy ~r:r2 in
      List.for_all
        (fun (x, y) ->
          Float.abs (sqrt ((x *. x) +. (y *. y)) -. r1) < 1e-6
          && Float.abs (sqrt (((x -. dx) ** 2.) +. ((y -. dy) ** 2.)) -. r2)
             < 1e-6)
        (Circle.intersections c1 c2))

(* ------------------------------------------------------------------ *)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_rng_int_in_bound;
      prop_angle_complement_measure;
      prop_angle_complement_disjoint;
      prop_circle_coverage_consistent;
      prop_circle_intersections_on_both;
    ]

let () =
  Alcotest.run "geom"
    [
      ( "point",
        [
          Alcotest.test_case "basic ops" `Quick test_point_basic;
          Alcotest.test_case "equality with tolerance" `Quick
            test_point_equal_eps;
          Alcotest.test_case "norms" `Quick test_point_norm;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "int uniform at small bound" `Quick
            test_rng_int_uniform_small_bound;
          Alcotest.test_case "int rejects bound <= 0" `Quick
            test_rng_int_invalid_bound;
          Alcotest.test_case "split_at keyed by index" `Quick
            test_rng_split_at;
          Alcotest.test_case "advance, save and load" `Quick test_rng_advance;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle;
          Alcotest.test_case "bernoulli" `Quick test_rng_bernoulli;
        ] );
      ( "sphere",
        [
          Alcotest.test_case "samples lie on sphere" `Quick test_sphere_radius;
          Alcotest.test_case "fill_on at an offset = one-sample calls" `Quick
            test_sphere_fill_offset;
          Alcotest.test_case "known-answer draws at d = 2" `Quick
            test_sphere_known_answer;
          Alcotest.test_case "fill_on at d = 2 allocates nothing" `Quick
            test_sphere_fill_words;
          Alcotest.test_case "skip_on leaves the stream where fill_on does"
            `Quick test_sphere_skip_on;
          Alcotest.test_case "ball samples inside" `Quick test_sphere_in_ball;
          Alcotest.test_case "mean near center" `Quick
            test_sphere_mean_near_center;
        ] );
      ( "box-ball",
        [
          Alcotest.test_case "box basics" `Quick test_box_basic;
          Alcotest.test_case "3d corners" `Quick test_box_corners_3d;
          Alcotest.test_case "ball containment" `Quick test_ball_contains;
          Alcotest.test_case "ball intersections" `Quick test_ball_intersections;
        ] );
      ( "grid",
        [
          Alcotest.test_case "cell roundtrip" `Quick test_grid_cell_roundtrip;
          Alcotest.test_case "circumradius" `Quick test_grid_circumradius;
          Alcotest.test_case "cells meeting a ball" `Quick test_grid_ball_cells;
          Alcotest.test_case "key hashtable" `Quick test_grid_tbl;
          Alcotest.test_case "cursor keeps the odometer's order" `Quick
            test_grid_cursor_order;
        ] );
      ( "shifted-grids",
        [
          Alcotest.test_case "faithful count" `Quick test_shifted_grids_count;
          Alcotest.test_case "capped mode" `Quick test_shifted_grids_capped;
          Alcotest.test_case "Lemma 2.1 nearness" `Quick test_lemma_2_1;
        ] );
      ( "angle",
        [
          Alcotest.test_case "normalize" `Quick test_angle_norm;
          Alcotest.test_case "interval membership" `Quick test_angle_ivl_mem;
          Alcotest.test_case "complement of a half" `Quick
            test_angle_complement_simple;
          Alcotest.test_case "empty/full complements" `Quick
            test_angle_complement_empty_full;
          Alcotest.test_case "two halves cover" `Quick test_angle_cover_by_halves;
        ] );
      ( "circle",
        [
          Alcotest.test_case "point/angle roundtrip" `Quick
            test_circle_point_angle_roundtrip;
          Alcotest.test_case "intersections" `Quick test_circle_intersections;
          Alcotest.test_case "coverage cases" `Quick test_circle_coverage_cases;
          Alcotest.test_case "coverage_into on columns allocates nothing"
            `Quick test_circle_coverage_into;
        ] );
      ("properties", qcheck_cases);
    ]
