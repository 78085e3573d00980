module Circle = Maxrs_geom.Circle
module Angle = Maxrs_geom.Angle
module Closed = Maxrs_geom.Closed

type arc = { disk : int; circle : Circle.t; ivl : Angle.ivl }

let dedupe centers =
  (* Keep the first disk of each exactly-coincident group, remembering the
     original index. *)
  let seen = Hashtbl.create (Array.length centers) in
  let kept = ref [] in
  Array.iteri
    (fun i (x, y) ->
      if not (Hashtbl.mem seen (x, y)) then begin
        Hashtbl.add seen (x, y) ();
        kept := (i, (x, y)) :: !kept
      end)
    centers;
  Array.of_list (List.rev !kept)

let boundary_arcs ~radius centers =
  assert (radius > 0.);
  let disks = dedupe centers in
  let m = Array.length disks in
  let arcs = ref [] in
  for a = 0 to m - 1 do
    let idx, (xi, yi) = disks.(a) in
    let c = Circle.make ~cx:xi ~cy:yi ~r:radius in
    let covered = ref [] in
    let buried = ref false in
    for b = 0 to m - 1 do
      if a <> b && not !buried then begin
        let _, (xj, yj) = disks.(b) in
        match Circle.coverage_by_disk c ~cx:xj ~cy:yj ~r:radius with
        | Circle.Covered -> buried := true
        | Circle.Disjoint -> ()
        | Circle.Arc ivl -> covered := ivl :: !covered
      end
    done;
    if not !buried then
      List.iter
        (fun ivl ->
          if ivl.Angle.len > Closed.angle_eps then
            arcs := { disk = idx; circle = c; ivl } :: !arcs)
        (Angle.complement !covered)
  done;
  !arcs

let contains ~radius centers (qx, qy) =
  let r2 = Closed.ball_r2 radius in
  Array.exists
    (fun (x, y) -> ((x -. qx) ** 2.) +. ((y -. qy) ** 2.) <= r2)
    centers

let arc_sample arc = Circle.point_at arc.circle (Angle.midpoint arc.ivl)
