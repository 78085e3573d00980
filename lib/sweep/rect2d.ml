module Closed = Maxrs_geom.Closed

type placement = { x : float; y : float; value : float }

(* Binary search for the index of [v] in the sorted array [a] (exact match
   expected — endpoint values are constructed identically everywhere). *)
let index_of_exn a v =
  let lo = ref 0 and hi = ref (Array.length a - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < v then lo := mid + 1 else hi := mid
  done;
  assert (a.(!lo) = v);
  !lo

(* Dual rectangles reach [Closed.reach] of the half-sides, so both
   solvers count exactly the placements the closed rule accepts. The
   margin moves a center by at most [eps] while the group spans at most
   a side. *)
let center_with_margin ~width ~height pts x0 y0 =
  let hw = width /. 2. and hh = height /. 2. in
  let rw = Closed.reach hw and rh = Closed.reach hh in
  let xlo = ref infinity and xhi = ref neg_infinity in
  let ylo = ref infinity and yhi = ref neg_infinity in
  Array.iter
    (fun (x, y, _) ->
      if x -. rw <= x0 && x0 <= x +. rw && y -. rh <= y0 && y0 <= y +. rh
      then begin
        xlo := Float.min !xlo x;
        xhi := Float.max !xhi x;
        ylo := Float.min !ylo y;
        yhi := Float.max !yhi y
      end)
    pts;
  if !xlo > !xhi then (x0, y0)
  else
    ( Closed.slab_center ~half:hw ~lo:!xlo ~hi:!xhi x0,
      Closed.slab_center ~half:hh ~lo:!ylo ~hi:!yhi y0 )

let place ~width ~height pts x0 y0 value =
  let x, y = center_with_margin ~width ~height pts x0 y0 in
  { x; y; value }

let max_sum ~width ~height pts =
  assert (width > 0. && height > 0.);
  let n = Array.length pts in
  if n = 0 then { x = 0.; y = 0.; value = 0. }
  else begin
    let hw = width /. 2. and hh = height /. 2. in
    let rw = Closed.reach hw and rh = Closed.reach hh in
    (* y-coordinate compression over both edge values of every dual
       rectangle. The max depth is attained at some rectangle edge. *)
    let ys = Array.make (2 * n) 0. in
    Array.iteri
      (fun i (_, y, _) ->
        ys.(2 * i) <- y -. rh;
        ys.((2 * i) + 1) <- y +. rh)
      pts;
    Array.sort Float.compare ys;
    let uniq = Array.of_list (List.sort_uniq Float.compare (Array.to_list ys)) in
    let tree = Segment_tree.create (Array.length uniq) in
    (* Events: (x, is_add, y_lo_idx, y_hi_idx, w). Closed rectangles: at a
       given x process all adds, evaluate, then all removes. *)
    let events =
      Array.concat
        (Array.to_list
           (Array.map
              (fun (x, y, w) ->
                let lo = index_of_exn uniq (y -. rh)
                and hi = index_of_exn uniq (y +. rh) in
                [| (x -. rw, true, lo, hi, w); (x +. rw, false, lo, hi, w) |])
              pts))
    in
    Array.sort
      (fun (x1, add1, _, _, _) (x2, add2, _, _, _) ->
        match Float.compare x1 x2 with
        | 0 -> Bool.compare add2 add1 (* adds first *)
        | c -> c)
      events;
    let best = ref 0. and best_x = ref 0. and best_y = ref 0. in
    let m = Array.length events in
    let i = ref 0 in
    while !i < m do
      let x0, _, _, _, _ = events.(!i) in
      (* all adds at x0 *)
      while
        !i < m
        &&
        let x, add, _, _, _ = events.(!i) in
        x = x0 && add
      do
        let _, _, lo, hi, w = events.(!i) in
        Segment_tree.range_add tree lo (hi + 1) w;
        incr i
      done;
      let v = Segment_tree.max_all tree in
      if v > !best then begin
        best := v;
        best_x := x0;
        best_y := uniq.(Segment_tree.argmax tree)
      end;
      (* all removes at x0 *)
      while
        !i < m
        &&
        let x, add, _, _, _ = events.(!i) in
        x = x0 && not add
      do
        let _, _, lo, hi, w = events.(!i) in
        Segment_tree.range_add tree lo (hi + 1) (-.w);
        incr i
      done
    done;
    if !best <= 0. then { x = !best_x; y = !best_y; value = !best }
    else place ~width ~height pts !best_x !best_y !best
  end

let max_sum_brute ~width ~height pts =
  let n = Array.length pts in
  if n = 0 then { x = 0.; y = 0.; value = 0. }
  else begin
    let hw = width /. 2. and hh = height /. 2. in
    let rw = Closed.reach hw and rh = Closed.reach hh in
    let best = ref { x = 0.; y = 0.; value = 0. } in
    (* A covered group's dual rectangles meet in a box whose corners pair
       one point's dual x edge with another's dual y edge; every such
       corner is a candidate (with negative weights the best box can
       also be bounded by upper edges). *)
    let edges coord r =
      Array.append
        (Array.map (fun p -> coord p -. r) pts)
        (Array.map (fun p -> coord p +. r) pts)
    in
    let xs = edges (fun (x, _, _) -> x) rw
    and ys = edges (fun (_, y, _) -> y) rh in
    Array.iter
      (fun cx ->
        Array.iter
          (fun cy ->
            let v =
              Array.fold_left
                (fun acc (x, y, w) ->
                  if
                    x -. rw <= cx
                    && cx <= x +. rw
                    && y -. rh <= cy
                    && cy <= y +. rh
                  then acc +. w
                  else acc)
                0. pts
            in
            if v > !best.value then best := { x = cx; y = cy; value = v })
          ys)
      xs;
    let b = !best in
    if b.value <= 0. then b else place ~width ~height pts b.x b.y b.value
  end
