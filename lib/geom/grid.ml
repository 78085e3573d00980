type t = { dim : int; side : float; origin : Point.t }
type key = int array

let make ~side ~origin =
  assert (side > 0.);
  { dim = Point.dim origin; side; origin }

let key_of_point g p =
  assert (Point.dim p = g.dim);
  Array.init g.dim (fun i ->
      int_of_float (Float.floor ((p.(i) -. g.origin.(i)) /. g.side)))

let cell_box g k =
  let lo = Array.init g.dim (fun i -> g.origin.(i) +. (float_of_int k.(i) *. g.side)) in
  let hi = Array.map (fun x -> x +. g.side) lo in
  Box.make lo hi

let cell_center g k =
  Array.init g.dim (fun i ->
      g.origin.(i) +. ((float_of_int k.(i) +. 0.5) *. g.side))

let cell_circumradius g = g.side *. sqrt (float_of_int g.dim) /. 2.

(* Odometer over the integer bounding box, accumulating the squared
   distance from the ball center to the partial cell box per axis —
   prunes whole subtrees and allocates nothing per cell. [lo]/[hi]/[key]
   are caller-provided scratch (length >= dim), so a caller looping over
   many balls (the sample-space insert path) allocates nothing per call.
   The key passed to [f] is the [key] scratch buffer: copy it before
   retaining. The enumeration reaches [radius + Closed.eps], the closed
   rule's reach, added here so that no caller boxes a reach per call. *)
let iter_keys_intersecting_into g ~lo ~hi ~key ~center ~radius f =
  let d = g.dim in
  let c = center and r = radius +. Closed.eps in
  for i = 0 to d - 1 do
    lo.(i) <- int_of_float (Float.floor ((c.(i) -. r -. g.origin.(i)) /. g.side));
    hi.(i) <- int_of_float (Float.floor ((c.(i) +. r -. g.origin.(i)) /. g.side));
    key.(i) <- lo.(i)
  done;
  let r2 = r *. r in
  (* The accumulated squared distance at each odometer depth lives in a
     small flat column instead of being a float parameter of [go]: a
     float argument to the (never-inlined) local recursion would be
     boxed at every call, on a path the insert loops hit per ball per
     grid. [accs.(i)] is the partial sum over axes [0..i-1]; the prune
     test and the per-axis [dx] math are unchanged. *)
  let accs = Float.Array.create (d + 1) in
  Float.Array.unsafe_set accs 0 0.;
  let rec go i =
    let acc = Float.Array.unsafe_get accs i in
    if acc <= r2 then
      if i = d then f key
      else
        for v = lo.(i) to hi.(i) do
          key.(i) <- v;
          let cell_lo = g.origin.(i) +. (float_of_int v *. g.side) in
          let cell_hi = cell_lo +. g.side in
          let dx =
            if c.(i) < cell_lo then cell_lo -. c.(i)
            else if c.(i) > cell_hi then c.(i) -. cell_hi
            else 0.
          in
          Float.Array.unsafe_set accs (i + 1) (acc +. (dx *. dx));
          go (i + 1)
        done
  in
  go 0

let iter_keys_intersecting_ball g b f =
  let d = g.dim in
  let lo = Array.make d 0 and hi = Array.make d 0 and key = Array.make d 0 in
  iter_keys_intersecting_into g ~lo ~hi ~key ~center:b.Ball.center
    ~radius:b.Ball.radius f

let keys_intersecting_ball g b =
  let acc = ref [] in
  iter_keys_intersecting_ball g b (fun k -> acc := Array.copy k :: !acc);
  !acc

module Tbl = Hashtbl.Make (struct
  type t = key

  let equal a b = a = b

  let hash k =
    (* FNV-style mix over coordinates; the polymorphic hash would also
       work but this is faster and collision behaviour is predictable.
       A plain counted loop, not [Array.iter]: the iter closure capturing
       [h] would heap-allocate on every hash — once per table lookup on
       the insert path. *)
    let h = ref 0x811c9dc5 in
    for i = 0 to Array.length k - 1 do
      h := (!h lxor Array.unsafe_get k i) * 0x01000193
    done;
    !h land max_int
end)
