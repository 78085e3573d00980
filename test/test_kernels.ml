(* Tests for the flat-memory kernel pass: the monomorphic sort/select
   kernels (lib/geom/kern.ml) against stdlib sorts, the kd-tree build on
   duplicate-heavy coordinates (the Hoare-select build must not degrade
   or misplace equal keys), and the Pstore-backed solver entries against
   the legacy array paths — bit-identical results, at 1 and 4 domains. *)

module Point = Maxrs_geom.Point
module Ball = Maxrs_geom.Ball
module Box = Maxrs_geom.Box
module Rng = Maxrs_geom.Rng
module Kern = Maxrs_geom.Kern
module Kdtree = Maxrs_geom.Kdtree
module Pstore = Maxrs_geom.Pstore
module Disk2d = Maxrs_sweep.Disk2d
module Colored_disk2d = Maxrs_sweep.Colored_disk2d
module Config = Maxrs.Config
module Static = Maxrs.Static
module Colored = Maxrs.Colored
module Output_sensitive = Maxrs.Output_sensitive
module Outcome = Maxrs_resilience.Outcome
module Fvec = Maxrs_geom.Fvec

let feq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let point_eq p q =
  Array.length p = Array.length q && Array.for_all2 feq p q

let fa_of_list l =
  let a = Fvec.create (List.length l) in
  List.iteri (Fvec.set a) l;
  a

let is_permutation idx n =
  let seen = Array.make n false in
  Array.for_all
    (fun i ->
      i >= 0 && i < n
      &&
      if seen.(i) then false
      else begin
        seen.(i) <- true;
        true
      end)
    idx

(* ------------------------------------------------------------------ *)
(* Kern: scratch buffers *)

let[@inline] fbuf_push b x =
  let k = Kern.Fbuf.reserve b in
  Fvec.unsafe_set (Kern.Fbuf.data b) k x

let test_fbuf_growth () =
  let b = Kern.Fbuf.create 2 in
  for i = 0 to 99 do
    Alcotest.(check int) "slot" i (Kern.Fbuf.reserve b);
    Fvec.set (Kern.Fbuf.data b) i (float_of_int i)
  done;
  Alcotest.(check int) "length" 100 (Kern.Fbuf.length b);
  Alcotest.(check bool) "roundtrip" true
    (let ok = ref true in
     for i = 0 to 99 do
       if Kern.Fbuf.get b i <> float_of_int i then ok := false
     done;
     !ok);
  Alcotest.(check bool) "data prefix" true
    (Fvec.length (Kern.Fbuf.data b) >= 100
    && Fvec.get (Kern.Fbuf.data b) 42 = 42.);
  Kern.Fbuf.clear b;
  Alcotest.(check int) "cleared" 0 (Kern.Fbuf.length b);
  fbuf_push b 7.;
  Alcotest.(check (float 0.)) "reusable" 7. (Kern.Fbuf.get b 0)

(* An append from another module — reserve a slot, store through the
   [Fvec] external — boxes nothing: 0 words per append once grown. *)
let test_fbuf_append_allocates_nothing () =
  let b = Kern.Fbuf.create 8 in
  let xs = Fvec.init 4096 (fun i -> float_of_int i *. 0.5) in
  for i = 0 to 4095 do
    fbuf_push b (Fvec.unsafe_get xs i)
  done;
  Kern.Fbuf.clear b;
  let w0 = Gc.minor_words () in
  for i = 0 to 4095 do
    fbuf_push b (Fvec.unsafe_get xs i)
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.)) "minor words over 4096 appends" 0. words;
  Alcotest.(check (float 0.)) "last slot" 2047.5 (Kern.Fbuf.get b 4095)

(* The tandem passes leave their permutation in whichever index column
   the last pass wrote and swap the two when it is the second, while
   [order] grows only the key columns and one permutation: every later
   sort on the same scratch must still find each column long enough.
   Colours below 256 on angle keys run one payload pass and eight key
   passes, an odd count, after an order larger than that sort and
   before sorts larger than it. Each result is the introsort's. *)
let test_radix_scratch_odd_passes () =
  let rng = Random.State.make [| 41 |] in
  let angles n = Fvec.init n (fun _ -> Random.State.float rng (2. *. Float.pi)) in
  let intro key n pay =
    let k = Fvec.init n (Fvec.get key) and p = Array.init n pay in
    Kern.intro_fi k p n;
    (k, p)
  in
  let order name n =
    let key = angles n in
    let perm = Array.make n 0 in
    Kern.order key n perm;
    Alcotest.(check (array int)) (name ^ ": order") (snd (intro key n Fun.id)) perm
  in
  let sorted name sort n pay =
    let key = angles n in
    let k1, p1 = intro key n pay in
    let k2 = Fvec.init n (Fvec.get key) and p2 = Array.init n pay in
    sort k2 p2 n;
    Alcotest.(check (array int)) (name ^ ": payload") p1 p2;
    for i = 0 to n - 1 do
      if Fvec.get k1 i <> Fvec.get k2 i then
        Alcotest.failf "%s: key %d differs" name i
    done
  in
  order "order 5,000" 5000;
  sorted "sort_fi 600, colours" Kern.sort_fi 600 (fun i -> i mod 200);
  order "order 3,000" 3000;
  sorted "radix_fi 3,000" Kern.radix_fi 3000 Fun.id;
  sorted "radix_fi 3,000, colours" Kern.radix_fi 3000 (fun i -> i mod 200);
  order "order 8,000" 8000;
  sorted "radix_fi 8,000" Kern.radix_fi 8000 Fun.id

let test_ibuf_growth () =
  let b = Kern.Ibuf.create 1 in
  for i = 0 to 63 do
    Kern.Ibuf.push b (i * i)
  done;
  Alcotest.(check int) "length" 64 (Kern.Ibuf.length b);
  Alcotest.(check int) "get" 49 (Kern.Ibuf.get b 7);
  Alcotest.(check int) "data" 2500 ((Kern.Ibuf.data b).(50));
  Kern.Ibuf.clear b;
  Alcotest.(check int) "cleared" 0 (Kern.Ibuf.length b)

(* ------------------------------------------------------------------ *)
(* Kern: sort/select kernels vs stdlib *)

let prop_sort_idx =
  QCheck.Test.make ~count:300 ~name:"sort_idx = stdlib sort of keys"
    QCheck.(small_list (float_range (-50.) 50.))
    (fun l ->
      let n = List.length l in
      let key = fa_of_list l in
      let idx = Array.init n Fun.id in
      Kern.sort_idx key idx;
      let expected = List.sort Float.compare l in
      is_permutation idx n
      && List.for_all2
           (fun e i -> Fvec.get key i = e)
           expected (Array.to_list idx))

let prop_sort_idx_range =
  QCheck.Test.make ~count:300
    ~name:"sort_idx_range sorts the slice, leaves the rest"
    QCheck.(pair (small_list (float_range (-9.) 9.)) (pair small_nat small_nat))
    (fun (l, (a, b)) ->
      let n = List.length l in
      QCheck.assume (n > 0);
      let lo = min (a mod n) (b mod n) and hi = max (a mod n) (b mod n) in
      let key = fa_of_list l in
      let idx = Array.init n (fun i -> n - 1 - i) in
      let orig = Array.copy idx in
      Kern.sort_idx_range key idx ~lo ~hi;
      let outside_ok = ref true in
      Array.iteri
        (fun i v -> if (i < lo || i > hi) && v <> orig.(i) then outside_ok := false)
        idx;
      let sorted_ok = ref true in
      for i = lo to hi - 1 do
        if Fvec.get key idx.(i) > Fvec.get key idx.(i + 1) then
          sorted_ok := false
      done;
      !outside_ok && !sorted_ok && is_permutation idx n)

let prop_select_idx =
  QCheck.Test.make ~count:400 ~name:"select_idx partitions around rank k"
    QCheck.(pair (small_list (float_range (-20.) 20.)) small_nat)
    (fun (l, ki) ->
      let n = List.length l in
      QCheck.assume (n > 0);
      let k = ki mod n in
      let key = fa_of_list l in
      let idx = Array.init n Fun.id in
      Kern.select_idx key idx ~lo:0 ~hi:(n - 1) ~k;
      let pivot = Fvec.get key idx.(k) in
      let expected = List.nth (List.sort Float.compare l) k in
      let ok = ref (pivot = expected && is_permutation idx n) in
      for i = 0 to k - 1 do
        if Fvec.get key idx.(i) > pivot then ok := false
      done;
      for i = k + 1 to n - 1 do
        if Fvec.get key idx.(i) < pivot then ok := false
      done;
      !ok)

let prop_sort_ff =
  QCheck.Test.make ~count:300
    ~name:"sort_ff: keys ascending, ties payload descending"
    QCheck.(small_list (pair (int_range (-4) 4) (int_range (-4) 4)))
    (fun l ->
      (* Small integer keys force plenty of ties. *)
      let n = List.length l in
      let key = fa_of_list (List.map (fun (k, _) -> float_of_int k) l) in
      let pay = fa_of_list (List.map (fun (_, p) -> float_of_int p) l) in
      Kern.sort_ff key pay n;
      let expected =
        List.sort
          (fun (k1, p1) (k2, p2) ->
            if k1 = k2 then compare p2 p1 else compare k1 k2)
          l
      in
      List.for_all2
        (fun (k, p) i ->
          Fvec.get key i = float_of_int k && Fvec.get pay i = float_of_int p)
        expected
        (List.init n Fun.id))

let prop_sort_fi =
  QCheck.Test.make ~count:300
    ~name:"sort_fi: keys ascending, ties payload ascending"
    QCheck.(small_list (pair (int_range (-4) 4) (int_range 0 9)))
    (fun l ->
      let n = List.length l in
      let key = fa_of_list (List.map (fun (k, _) -> float_of_int k) l) in
      let pay = Array.of_list (List.map snd l) in
      Kern.sort_fi key pay n;
      let expected =
        List.sort
          (fun (k1, p1) (k2, p2) ->
            if k1 = k2 then compare p1 p2 else compare k1 k2)
          l
      in
      List.for_all2
        (fun (k, p) i -> Fvec.get key i = float_of_int k && pay.(i) = p)
        expected
        (List.init n Fun.id))

(* ------------------------------------------------------------------ *)
(* Radix path vs introsort: the two strategies behind sort_ff/sort_fi
   must produce the same arrays on every input, including adversarial
   float shapes (negatives, both zeros, subnormals, huge magnitudes,
   infinities). The position-wise comparison uses float equality, under
   which -0.0 = +0.0 — the comparator cannot distinguish a tied zero
   pair, so the strategies may legitimately place the two bit patterns
   either way round; the bit-level multiset check then pins that the
   output is exactly a permutation of the input, sign bits included. *)

let adversarial_float_gen =
  QCheck.Gen.(
    let special =
      oneofl
        [
          0.0;
          -0.0;
          Float.min_float;
          -.Float.min_float;
          4.9e-324 (* least subnormal *);
          -4.9e-324;
          1e308;
          -1e308;
          infinity;
          neg_infinity;
          1.5;
          -1.5;
        ]
    in
    let uniform = map (fun x -> if Float.is_nan x then 0. else x) float in
    let smallint = map float_of_int (int_range (-6) 6) in
    (* Small ints dominate so key ties are common. *)
    frequency [ (2, special); (2, uniform); (3, smallint) ])

(* Sizes range across [Kern.radix_threshold] so the dispatchers are
   exercised on both strategies. *)
let adversarial_arrays pay_gen =
  QCheck.make
    QCheck.Gen.(
      array_size
        (oneof [ int_range 0 40; int_range 500 1400 ])
        (pair adversarial_float_gen pay_gen))

let sorted_bits key n pay_bits =
  List.sort compare
    (List.init n (fun i -> (Int64.bits_of_float (Fvec.get key i), pay_bits i)))

let prop_radix_ff =
  QCheck.Test.make ~count:120
    ~name:"radix_ff = intro_ff = sort_ff on adversarial floats"
    (adversarial_arrays adversarial_float_gen)
    (fun arr ->
      let n = Array.length arr in
      let mk f = Fvec.init n (fun i -> f arr.(i)) in
      let k1 = mk fst and p1 = mk snd in
      let k2 = mk fst and p2 = mk snd in
      let k3 = mk fst and p3 = mk snd in
      Kern.intro_ff k1 p1 n;
      Kern.radix_ff k2 p2 n;
      Kern.sort_ff k3 p3 n;
      let ok = ref true in
      for i = 0 to n - 1 do
        if
          not
            (Fvec.get k1 i = Fvec.get k2 i
            && Fvec.get p1 i = Fvec.get p2 i
            && Fvec.get k1 i = Fvec.get k3 i
            && Fvec.get p1 i = Fvec.get p3 i)
        then ok := false
      done;
      !ok
      && sorted_bits k2 n (fun i -> Int64.bits_of_float (Fvec.get p2 i))
         = List.sort compare
             (List.init n (fun i ->
                  ( Int64.bits_of_float (fst arr.(i)),
                    Int64.bits_of_float (snd arr.(i)) ))))

(* The key-only order is the permutation the tandem introsort leaves in
   an identity payload: equal keys (both zeros included) by ascending
   index. Permutations are ints, so the comparison is exact; the keys
   must come back untouched, bit for bit. *)
let prop_order =
  QCheck.Test.make ~count:120
    ~name:"order = intro_fi with an identity payload on adversarial floats"
    (adversarial_arrays (QCheck.Gen.return ()))
    (fun arr ->
      let n = Array.length arr in
      let key = Fvec.init n (fun i -> fst arr.(i)) in
      let k1 = Fvec.init n (fun i -> fst arr.(i)) in
      let want = Array.init n Fun.id in
      Kern.intro_fi k1 want n;
      let perm = Array.make (n + 3) (-1) in
      Kern.order key n perm;
      Array.sub perm 0 n = want
      && Array.for_all (( = ) (-1)) (Array.sub perm n 3)
      && List.for_all
           (fun i ->
             Int64.bits_of_float (Fvec.get key i)
             = Int64.bits_of_float (fst arr.(i)))
           (List.init n Fun.id))

let prop_radix_fi =
  QCheck.Test.make ~count:120
    ~name:"radix_fi = intro_fi = sort_fi on adversarial floats"
    (adversarial_arrays QCheck.Gen.(int_range (-9) 9))
    (fun arr ->
      let n = Array.length arr in
      let mk_k () = Fvec.init n (fun i -> fst arr.(i)) in
      let mk_p () = Array.init n (fun i -> snd arr.(i)) in
      let k1 = mk_k () and p1 = mk_p () in
      let k2 = mk_k () and p2 = mk_p () in
      let k3 = mk_k () and p3 = mk_p () in
      Kern.intro_fi k1 p1 n;
      Kern.radix_fi k2 p2 n;
      Kern.sort_fi k3 p3 n;
      let ok = ref true in
      for i = 0 to n - 1 do
        (* Key-equal groups order payloads ascending, so the integer
           payload sequence is fully determined: exact int equality. *)
        if
          not
            (Fvec.get k1 i = Fvec.get k2 i
            && p1.(i) = p2.(i)
            && Fvec.get k1 i = Fvec.get k3 i
            && p1.(i) = p3.(i))
        then ok := false
      done;
      !ok
      && sorted_bits k2 n (fun i -> Int64.of_int p2.(i))
         = List.sort compare
             (List.init n (fun i ->
                  ( Int64.bits_of_float (fst arr.(i)),
                    Int64.of_int (snd arr.(i)) ))))

(* ------------------------------------------------------------------ *)
(* Kd-tree on duplicate-heavy coordinates: the index-permutation build
   splits by Hoare select, and equal keys on the split axis must land
   consistently on both sides of the median. *)

let kd_linear_ball pts ball =
  Array.fold_left (fun acc p -> if Ball.contains ball p then acc + 1 else acc) 0 pts

let kd_linear_box pts box =
  Array.fold_left (fun acc p -> if Box.contains box p then acc + 1 else acc) 0 pts

let test_kd_duplicate_axis () =
  (* Three interleaved families: constant x with few distinct ys, a
     single repeated point, and few distinct xs with constant y — every
     split axis sees long runs of equal keys. *)
  let n = 300 in
  let pts =
    Array.init n (fun i ->
        match i mod 3 with
        | 0 -> [| 1.; float_of_int (i mod 7) |]
        | 1 -> [| 1.; 3.5 |]
        | _ -> [| float_of_int (i mod 4); 2. |])
  in
  let t = Kdtree.build pts in
  Alcotest.(check int) "size" n (Kdtree.size t);
  let rng = Rng.create 20240806 in
  for q = 0 to 19 do
    let c = [| Rng.uniform rng (-1.) 5.; Rng.uniform rng (-1.) 7. |] in
    let ball = Ball.make c (Rng.uniform rng 0.3 3.) in
    Alcotest.(check int)
      (Printf.sprintf "ball count %d" q)
      (kd_linear_ball pts ball)
      (Kdtree.count_in_ball t ball);
    let lo = [| Rng.uniform rng (-1.) 3.; Rng.uniform rng (-1.) 3. |] in
    let box = Box.make lo [| lo.(0) +. 2.; lo.(1) +. 2.5 |] in
    Alcotest.(check int)
      (Printf.sprintf "box count %d" q)
      (kd_linear_box pts box)
      (Kdtree.count_in_box t box);
    let _, _, d = Kdtree.nearest t c in
    let dmin =
      Array.fold_left
        (fun acc p -> Float.min acc (sqrt (Point.dist2 p c)))
        Float.infinity pts
    in
    Alcotest.(check bool)
      (Printf.sprintf "nearest %d" q)
      true
      (Float.abs (d -. dmin) <= 1e-9)
  done

let test_kd_all_equal () =
  let pts = Array.make 64 [| 5.; 5.; 5. |] in
  let t = Kdtree.build pts in
  Alcotest.(check int) "ball" 64 (Kdtree.count_in_ball t (Ball.unit [| 5.; 5.; 5. |]));
  Alcotest.(check int) "box" 64
    (Kdtree.count_in_box t (Box.make [| 4.; 4.; 4. |] [| 6.; 6.; 6. |]));
  let _, p, d = Kdtree.nearest t [| 5.; 5.; 6. |] in
  Alcotest.(check bool) "nearest point" true (Point.equal p [| 5.; 5.; 5. |]);
  Alcotest.(check bool) "nearest dist" true (Float.abs (d -. 1.) <= 1e-12)

(* ------------------------------------------------------------------ *)
(* Pstore-backed solves ≡ legacy array paths, bit for bit, at 1 and 4
   domains (the columnar entries share the parallel layer's bit-identity
   contract, so the domain count must not matter either). *)

let disk_result_eq (a : Disk2d.result) (b : Disk2d.result) =
  feq a.Disk2d.x b.Disk2d.x
  && feq a.Disk2d.y b.Disk2d.y
  && feq a.Disk2d.value b.Disk2d.value

let outcome_eq eq a b =
  match (a, b) with
  | Outcome.Complete x, Outcome.Complete y | Outcome.Partial x, Outcome.Partial y
    ->
      eq x y
  | _ -> false

let prop_disk_store ~domains =
  QCheck.Test.make ~count:50
    ~name:(Printf.sprintf "Disk2d: store = array path (domains=%d)" domains)
    QCheck.(pair (int_range 0 999) (int_range 1 40))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let tri =
        Array.init n (fun _ ->
            ( Rng.uniform rng (-5.) 5.,
              Rng.uniform rng (-5.) 5.,
              Rng.uniform rng 0.1 3. ))
      in
      let arr =
        match Disk2d.max_weight_checked ~domains ~radius:1.2 tri with
        | Ok o -> o
        | Error _ -> assert false
      in
      let st =
        Disk2d.max_weight_store ~domains ~radius:1.2 (Pstore.of_triples tri)
      in
      outcome_eq disk_result_eq arr st)

let colored_result_eq (a : Colored_disk2d.result) (b : Colored_disk2d.result) =
  feq a.Colored_disk2d.x b.Colored_disk2d.x
  && feq a.Colored_disk2d.y b.Colored_disk2d.y
  && a.Colored_disk2d.value = b.Colored_disk2d.value

let prop_colored_disk_store ~domains =
  QCheck.Test.make ~count:50
    ~name:
      (Printf.sprintf "Colored_disk2d: store = array path (domains=%d)" domains)
    QCheck.(pair (int_range 0 999) (int_range 1 40))
    (fun (seed, n) ->
      let rng = Rng.create (seed + 5000) in
      let pts =
        Array.init n (fun _ ->
            (Rng.uniform rng (-4.) 4., Rng.uniform rng (-4.) 4.))
      in
      let colors = Array.init n (fun _ -> Rng.int rng 5) in
      let arr =
        match
          Colored_disk2d.max_colored_checked ~domains ~radius:1.1 pts ~colors
        with
        | Ok o -> o
        | Error _ -> assert false
      in
      let st =
        Colored_disk2d.max_colored_store ~domains ~radius:1.1
          (Pstore.of_planar_colored pts ~colors)
      in
      outcome_eq colored_result_eq arr st)

let solver_cfg ~domains ~seed =
  Config.make ~epsilon:0.4 ~sample_constant:0.25 ~max_grid_shifts:(Some 3)
    ~seed ~domains:(Some domains) ()

let prop_static_store ~domains =
  QCheck.Test.make ~count:30
    ~name:(Printf.sprintf "Static: store = array path (domains=%d)" domains)
    QCheck.(pair (int_range 0 999) (int_range 1 32))
    (fun (seed, n) ->
      let rng = Rng.create (seed + 11000) in
      let pts =
        Array.init n (fun _ ->
            ( [| Rng.uniform rng 0. 8.; Rng.uniform rng 0. 8. |],
              Rng.uniform rng 0.1 2. ))
      in
      let cfg = solver_cfg ~domains ~seed in
      let arr = Static.solve_unchecked ~cfg ~radius:1.5 ~dim:2 pts in
      let st = Static.solve_store ~cfg ~radius:1.5 (Pstore.of_weighted pts) in
      match (arr, st) with
      | None, None -> true
      | Some a, Some s ->
          feq a.Static.value s.Static.value
          && point_eq a.Static.center s.Static.center
      | _ -> false)

let prop_colored_solver_store ~domains =
  QCheck.Test.make ~count:30
    ~name:(Printf.sprintf "Colored: store = array path (domains=%d)" domains)
    QCheck.(pair (int_range 0 999) (int_range 1 32))
    (fun (seed, n) ->
      let rng = Rng.create (seed + 17000) in
      let pts =
        Array.init n (fun _ ->
            [| Rng.uniform rng 0. 8.; Rng.uniform rng 0. 8. |])
      in
      let colors = Array.init n (fun _ -> Rng.int rng 4) in
      let cfg = solver_cfg ~domains ~seed in
      let arr = Colored.solve ~cfg ~radius:1.5 ~dim:2 pts ~colors in
      let st =
        Colored.solve_store ~cfg ~radius:1.5 (Pstore.of_colored pts ~colors)
      in
      match (arr, st) with
      | None, None -> true
      | Some a, Some s ->
          a.Colored.value = s.Colored.value
          && point_eq a.Colored.center s.Colored.center
      | _ -> false)

let os_result_eq (a : Output_sensitive.result) (b : Output_sensitive.result) =
  feq a.Output_sensitive.x b.Output_sensitive.x
  && feq a.Output_sensitive.y b.Output_sensitive.y
  && a.Output_sensitive.depth = b.Output_sensitive.depth
  && a.Output_sensitive.stats = b.Output_sensitive.stats

let prop_output_sensitive_store ~domains =
  QCheck.Test.make ~count:25
    ~name:
      (Printf.sprintf "Output_sensitive: store = array path (domains=%d)"
         domains)
    QCheck.(pair (int_range 0 999) (int_range 1 28))
    (fun (seed, n) ->
      let rng = Rng.create (seed + 23000) in
      let pts =
        Array.init n (fun _ ->
            (Rng.uniform rng 0. 6., Rng.uniform rng 0. 6.))
      in
      let colors = Array.init n (fun _ -> Rng.int rng 4) in
      let arr =
        Output_sensitive.solve_unchecked ~max_shifts:4 ~seed:7 ~domains pts
          ~colors
      in
      let st =
        Output_sensitive.solve_store ~max_shifts:4 ~seed:7 ~domains
          (Pstore.of_planar_colored pts ~colors)
      in
      outcome_eq os_result_eq arr st)

(* ------------------------------------------------------------------ *)

let qcheck group tests = (group, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "kernels"
    [
      ( "scratch-buffers",
        [
          Alcotest.test_case "Fbuf growth and reuse" `Quick test_fbuf_growth;
          Alcotest.test_case "Fbuf append allocates nothing" `Quick
            test_fbuf_append_allocates_nothing;
          Alcotest.test_case "Ibuf growth and reuse" `Quick test_ibuf_growth;
          Alcotest.test_case "radix scratch after an odd pass count" `Quick
            test_radix_scratch_odd_passes;
        ] );
      qcheck "sort-kernels"
        [
          prop_sort_idx;
          prop_sort_idx_range;
          prop_select_idx;
          prop_sort_ff;
          prop_sort_fi;
          prop_radix_ff;
          prop_radix_fi;
          prop_order;
        ];
      ( "kdtree-duplicates",
        [
          Alcotest.test_case "duplicate-heavy axes" `Quick
            test_kd_duplicate_axis;
          Alcotest.test_case "all points equal" `Quick test_kd_all_equal;
        ] );
      qcheck "store-identity"
        [
          prop_disk_store ~domains:1;
          prop_disk_store ~domains:4;
          prop_colored_disk_store ~domains:1;
          prop_colored_disk_store ~domains:4;
          prop_static_store ~domains:1;
          prop_static_store ~domains:4;
          prop_colored_solver_store ~domains:1;
          prop_colored_solver_store ~domains:4;
          prop_output_sensitive_store ~domains:1;
          prop_output_sensitive_store ~domains:4;
        ];
    ]
