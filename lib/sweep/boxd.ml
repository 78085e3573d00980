module Point = Maxrs_geom.Point
module Closed = Maxrs_geom.Closed

type result = { point : Point.t; value : float }

let depth_at ~widths pts q =
  let d = Array.length widths in
  let reach = Array.map (fun w -> Closed.reach (w /. 2.)) widths in
  Array.fold_left
    (fun acc (p, w) ->
      let covered = ref true in
      for k = 0 to d - 1 do
        if Float.abs (p.(k) -. q.(k)) > reach.(k) then covered := false
      done;
      if !covered then acc +. w else acc)
    0. pts

let max_sum ~widths pts =
  let d = Array.length widths in
  assert (d >= 1);
  Array.iter (fun w -> assert (w > 0.)) widths;
  assert (Array.length pts > 0);
  Array.iter
    (fun (p, w) ->
      assert (Point.dim p = d);
      assert (w >= 0.))
    pts;
  let half = Array.map (fun w -> w /. 2.) widths in
  let reach = Array.map Closed.reach half in
  (* Recurse over dimensions in the dual, where each point is a box
     reaching [reach] about it: a maximum-depth point can be slid down
     along axis k until some active dual box's lower face binds, so the
     candidates are c = p_k - reach_k over active points p; the last
     dimension is a 1-D sweep over windows of the dual box's width.
     [active] holds (point, weight) pairs still compatible with the
     choices made so far, [center] the choices. *)
  let center = Array.make d 0. in
  let best = ref { point = Array.make d 0.; value = -1. } in
  let rec go k active =
    if Array.length active = 0 then ()
    else if k = d - 1 then begin
      let len = 2. *. reach.(k) in
      let placement =
        Interval1d.max_sum ~len (Array.map (fun (p, w) -> (p.(k), w)) active)
      in
      if placement.Interval1d.value > !best.value then begin
        (* The window [lo, lo + len] holds the points with
           [x - len <= lo <= x] (the sweep's own arithmetic). The
           center, found at the slack, is moved to keep a margin over
           the covered group on every axis ([Closed.slab_center]). *)
        let lo = placement.Interval1d.lo in
        center.(k) <- lo +. reach.(k);
        let clo = Array.make d infinity and chi = Array.make d neg_infinity in
        Array.iter
          (fun (p, _) ->
            if p.(k) -. len <= lo && lo <= p.(k) then
              for j = 0 to d - 1 do
                clo.(j) <- Float.min clo.(j) p.(j);
                chi.(j) <- Float.max chi.(j) p.(j)
              done)
          active;
        let point =
          (* With all weights zero the window may cover no point. *)
          if clo.(k) > chi.(k) then Array.copy center
          else
            Array.init d (fun j ->
                Closed.slab_center ~half:half.(j) ~lo:clo.(j) ~hi:chi.(j)
                  center.(j))
        in
        best := { point; value = placement.Interval1d.value }
      end
    end
    else begin
      let r = reach.(k) in
      let seen = Hashtbl.create 64 in
      Array.iter
        (fun (p, _) ->
          let c = p.(k) -. r in
          if not (Hashtbl.mem seen c) then begin
            Hashtbl.add seen c ();
            center.(k) <- c;
            go (k + 1)
              (Array.of_seq
                 (Seq.filter
                    (fun (q, _) -> q.(k) -. r <= c && c <= q.(k) +. r)
                    (Array.to_seq active)))
          end)
        active
    end
  in
  go 0 pts;
  assert (!best.value >= 0.);
  !best
