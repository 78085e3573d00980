type t = { lo : Point.t; hi : Point.t }

let make lo hi =
  assert (Point.dim lo = Point.dim hi);
  assert (Array.for_all2 (fun a b -> a <= b) lo hi);
  { lo; hi }

let of_center_half_extent c h =
  assert (h >= 0.);
  make (Array.map (fun x -> x -. h) c) (Array.map (fun x -> x +. h) c)

let dim b = Point.dim b.lo
let center b = Point.midpoint b.lo b.hi
let circumradius b = 0.5 *. Point.dist b.lo b.hi

let contains b p =
  let rec go i =
    i >= dim b
    || b.lo.(i) -. Closed.eps <= p.(i)
       && p.(i) <= b.hi.(i) +. Closed.eps
       && go (i + 1)
  in
  Point.dim p = dim b && go 0

let corners b =
  let d = dim b in
  let rec go i acc =
    if i >= d then [ acc ]
    else
      let low = Array.copy acc and high = Array.copy acc in
      low.(i) <- b.lo.(i);
      high.(i) <- b.hi.(i);
      go (i + 1) low @ go (i + 1) high
  in
  go 0 (Point.zero d)

let dist2_to_point b p =
  let acc = ref 0. in
  for i = 0 to dim b - 1 do
    let d =
      if p.(i) < b.lo.(i) then b.lo.(i) -. p.(i)
      else if p.(i) > b.hi.(i) then p.(i) -. b.hi.(i)
      else 0.
    in
    acc := !acc +. (d *. d)
  done;
  !acc

let intersects_box a b =
  let rec go i =
    i >= dim a
    || a.lo.(i) <= b.hi.(i) +. Closed.eps
       && b.lo.(i) <= a.hi.(i) +. Closed.eps
       && go (i + 1)
  in
  go 0

let pp ppf b = Format.fprintf ppf "[%a .. %a]" Point.pp b.lo Point.pp b.hi
