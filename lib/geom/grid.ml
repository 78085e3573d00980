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

(* A resumable odometer over the integer bounding box of a ball,
   accumulating the squared distance from the ball center to the
   partial cell box per axis so that whole subtrees are pruned. The
   caller owns the cursor and steps it in its own loop, so an
   enumeration allocates nothing: no callback closure, no recursion
   closure, no boxed float. Keys come out in lexicographic order (axis
   0 outermost), the order of the recursive odometer it replaces; the
   sample space creates cells, and so draws from each grid's rng
   stream, in that order.

   [accs.(i)] is the partial sum over axes [0..i-1] of the path to the
   current key, and slot [dim + 1] holds the squared reach. [axis] is
   the axis whose [key] slot is to be tried next, [dim] right after a
   key was produced (resume one past it on axis [dim - 1]), and [-1]
   once the enumeration is over. The enumeration reaches
   [radius + Closed.eps], the closed rule's reach. *)
type cursor = {
  grid : t;
  mutable center : Point.t;
  lo : int array;
  hi : int array;
  key : int array;
  accs : floatarray;
  mutable axis : int;
}

let cursor g =
  let d = g.dim in
  assert (d >= 1);
  {
    grid = g;
    center = g.origin;
    lo = Array.make d 0;
    hi = Array.make d 0;
    key = Array.make d 0;
    accs = Float.Array.make (d + 2) 0.;
    axis = -1;
  }

let cursor_key cur = cur.key

let start cur ~center ~radius =
  let g = cur.grid in
  let c = center and r = radius +. Closed.eps in
  for i = 0 to g.dim - 1 do
    let o = g.origin.(i) in
    cur.lo.(i) <- int_of_float (Float.floor ((c.(i) -. r -. o) /. g.side));
    cur.hi.(i) <- int_of_float (Float.floor ((c.(i) +. r -. o) /. g.side))
  done;
  cur.key.(0) <- cur.lo.(0);
  Float.Array.unsafe_set cur.accs 0 0.;
  Float.Array.unsafe_set cur.accs (g.dim + 1) (r *. r);
  cur.center <- center;
  cur.axis <- 0

let next cur =
  let g = cur.grid in
  let d = g.dim and c = cur.center in
  let lo = cur.lo and hi = cur.hi and key = cur.key and accs = cur.accs in
  let r2 = Float.Array.unsafe_get accs (d + 1) in
  let i = ref cur.axis in
  if !i = d then begin
    i := d - 1;
    key.(d - 1) <- key.(d - 1) + 1
  end;
  while !i >= 0 && !i < d do
    let a = !i in
    let v = key.(a) in
    if v > hi.(a) then begin
      (* axis [a] exhausted: back up to the next value on axis [a - 1] *)
      i := a - 1;
      if a > 0 then key.(a - 1) <- key.(a - 1) + 1
    end
    else begin
      let cell_lo = g.origin.(a) +. (float_of_int v *. g.side) in
      let cell_hi = cell_lo +. g.side in
      let dx =
        if c.(a) < cell_lo then cell_lo -. c.(a)
        else if c.(a) > cell_hi then c.(a) -. cell_hi
        else 0.
      in
      let acc = Float.Array.unsafe_get accs a +. (dx *. dx) in
      if not (acc <= r2) then key.(a) <- v + 1
      else if a = d - 1 then i := d
      else begin
        Float.Array.unsafe_set accs (a + 1) acc;
        key.(a + 1) <- lo.(a + 1);
        i := a + 1
      end
    end
  done;
  cur.axis <- !i;
  !i = d

let iter_keys_intersecting_ball g b f =
  let cur = cursor g in
  start cur ~center:b.Ball.center ~radius:b.Ball.radius;
  while next cur do
    f cur.key
  done

let keys_intersecting_ball g b =
  let acc = ref [] in
  iter_keys_intersecting_ball g b (fun k -> acc := Array.copy k :: !acc);
  !acc

module Tbl = Hashtbl.Make (struct
  type t = key

  (* A typed int loop, not polymorphic [=]: every table lookup on the
     update paths ends in one [equal], and [compare_val]'s generic walk
     costs more than the few integer compares a key needs. *)
  let equal (a : key) (b : key) =
    let n = Array.length a in
    n = Array.length b
    &&
    let i = ref 0 in
    while !i < n && Array.unsafe_get a !i = Array.unsafe_get b !i do
      incr i
    done;
    !i = n

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
